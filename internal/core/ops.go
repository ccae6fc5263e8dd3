package core

import (
	"reflect"
	"slices"
	"sync"

	"repro/internal/runtime"
	"repro/internal/transport"
)

// This file holds the distribution manager's one building block: the element
// operation.  An ElemOp is apply(bc, gid, arg) -> result, run on the base
// container owning gid under one access mode's data bracket, and issued in
// five flavours — asynchronous, synchronous, split-phase (this file), bulk
// asynchronous and bulk synchronous (bulk.go).  Every element method of every
// container is an instance: Set/Get and their kin are operations registered
// once per (family, element types); the closure API of distribution.go is the
// instance whose argument is the caller's func.
//
// A request is a pooled record under a stable operation ID.  Whether it
// crosses a wire as bytes or by pointer is not this package's concern: the
// records' codecs are derived from the codecs of G, A and R (transport.Derive)
// and handed to the registry as they come.  A func has no codec, so closure
// instances are by-reference operations and everything below treats them like
// any other.  Counters never depend on the kind: same resolution brackets,
// same RMI flavour, same simulated byte sizes, same reply accounting on every
// transport (the counter-identity invariant the equivalence suite pins).
//
// Where a result goes is the caller's flavour: a blocking caller's typed result
// cell, a split-phase caller's Future, a bulk gather's tracker.  None of them
// can cross a wire as bytes: when the registry says a request crosses by value
// (Location.OpCrossesByValue) the origin parks a completion callback under a
// per-location token and the owner answers with Location.ReplyOp.  Otherwise
// the record reaches the handler by pointer and the cell (or future, or
// tracker) rides inside it.

// OncePerType memoises build's result under V's own type.  Generic code that
// must register something exactly once per instantiation (operation names
// are unique) wraps the registration in it, with a V that mentions every
// type parameter the registration depends on.  Each type has its own slot, so
// a build may itself construct things that call OncePerType.
func OncePerType[V any](build func() V) V {
	t := reflect.TypeOf((*V)(nil)).Elem()
	s, ok := perType.Load(t)
	if !ok {
		s, _ = perType.LoadOrStore(t, new(perTypeSlot))
	}
	slot := s.(*perTypeSlot)
	slot.once.Do(func() { slot.v = build() })
	return slot.v.(V)
}

type perTypeSlot struct {
	once sync.Once
	v    any
}

var perType sync.Map // reflect.Type -> *perTypeSlot

// ElemOp is one element operation of a container family at fixed types: GID
// G, base container B, argument A, result R (struct{} stands for "none").
// Construct it once per instantiation with RegisterWrite or RegisterRead —
// inside OncePerType when the family is generic — and route the container's
// methods through its flavours.
type ElemOp[G any, B BContainer, A any, R any] struct {
	mode AccessMode
	// apply runs at the owning base container, inside its data bracket.  k is
	// the element's position in the issuing bulk call (0 for the per-element
	// flavours); only closure instances look at loc and k.
	apply func(loc *runtime.Location, bc B, gid G, arg A, k int) R
	// elem and group are the operations the element record and the group
	// record travel under; zero when that form was not registered.
	elem, group runtime.OpID
	// The operation's own record pools (of *elemRec[G, A, R], *group[G, A, R],
	// *groupRet[R] and *result[R]): an operation is one per instantiation, so
	// the pools are typed without a type parameter to key them by.
	recs, groups, rets, results sync.Pool
	// retBytes is the simulated marshalled size of a reply, resolved once for R.
	retBytes func(R) int
}

// result is where a blocking caller waits for its R: the owner's hop — or, for
// a request that crossed by value, the origin's token callback — stores the
// value in place and wakes the caller: no future, no channel, no boxed value.
// Pooled per operation; a caller the machine's abort unwound leaves its cell to
// the collector (runtime.Waiter says why).
type result[R any] struct {
	w runtime.Waiter
	v R
}

func (res *result[R]) set(v R) {
	res.v = v
	res.w.Wake()
}

// elemRec is one element operation in flight.  Ownership follows the request:
// the hop that applies it recycles it, a shipped record belongs to the
// destination handler (in-process or rendezvous delivery) or is recycled by
// the wire adapter after encoding.
type elemRec[G any, A any, R any] struct {
	gid   G
	arg   A
	mode  AccessMode // never encoded: a decoded record takes its operation's
	bytes int
	hops  int
	// Where the result goes: res (a blocking caller) or fut (a split-phase one)
	// when the record travels by pointer, (origin, token) when it crosses by
	// value; none of them marks an asynchronous request.
	origin int
	token  uint64
	res    *result[R]      // never encoded
	fut    *runtime.Future // never encoded
}

func (a *elemRec[G, A, R]) wantsReply() bool {
	return a.res != nil || a.fut != nil || a.token != 0
}

// groupRet is one bulk reply: a shipped group's results with their positions
// in the origin's result slice.  The origin's completion callback recycles the
// record it is handed; the one the owner built is recycled by the wire adapter
// once it is encoded.
type groupRet[R any] struct {
	poss []int
	vals []R
}

func (o *ElemOp[G, B, A, R]) putRec(a *elemRec[G, A, R]) {
	*a = elemRec[G, A, R]{}
	o.recs.Put(a)
}

func (o *ElemOp[G, B, A, R]) putRet(r *groupRet[R]) {
	r.poss, r.vals = r.poss[:0], r.vals[:0]
	o.rets.Put(r)
}

// elemCodec marshals an element record.  res and fut never travel; the origin
// does only behind a token.
func (o *ElemOp[G, B, A, R]) elemCodec(name string, gidCodec transport.Codec[G], argCodec transport.Codec[A]) transport.Codec[*elemRec[G, A, R]] {
	return transport.Derive(name+"-args",
		func(b *transport.Buffer, a *elemRec[G, A, R]) {
			gidCodec.Encode(b, a.gid)
			argCodec.Encode(b, a.arg)
			b.PutVarint(int64(a.bytes))
			b.PutVarint(int64(a.hops))
			b.PutUvarint(a.token)
			if a.token != 0 {
				b.PutVarint(int64(a.origin))
			}
		},
		func(b *transport.Buffer) *elemRec[G, A, R] {
			a := o.recs.Get().(*elemRec[G, A, R])
			a.gid, a.arg, a.mode = gidCodec.Decode(b), argCodec.Decode(b), o.mode
			a.bytes, a.hops = int(b.Varint()), int(b.Varint())
			if a.token = b.Uvarint(); a.token != 0 {
				a.origin = int(b.Varint())
			}
			if b.Err() != nil {
				o.putRec(a)
				return nil
			}
			return a
		},
		gidCodec, argCodec)
}

// groupRetCodec marshals a bulk reply like groupCodec marshals the group: the
// count, then the positions and the values as columns.
func (o *ElemOp[G, B, A, R]) groupRetCodec(name string, retCodec transport.Codec[R]) transport.Codec[*groupRet[R]] {
	return transport.Derive(name+"-ret",
		func(b *transport.Buffer, r *groupRet[R]) {
			b.PutUvarint(uint64(len(r.poss)))
			transport.IntCodec.EncodeSlice(b, r.poss)
			retCodec.EncodeSlice(b, r.vals)
		},
		func(b *transport.Buffer) *groupRet[R] {
			r, n := o.rets.Get().(*groupRet[R]), columnLen(b)
			r.poss, r.vals = slices.Grow(r.poss, n)[:n], slices.Grow(r.vals, n)[:n]
			transport.IntCodec.DecodeSlice(b, r.poss)
			retCodec.DecodeSlice(b, r.vals)
			if b.Err() != nil {
				o.putRet(r)
				return nil
			}
			return r
		},
		retCodec)
}

// unitCodec marshals the absent argument of a read and the absent result of a
// write: nothing.
var unitCodec = transport.Codec[struct{}]{
	Name:   "unit",
	Encode: func(*transport.Buffer, struct{}) {},
	Decode: func(*transport.Buffer) struct{} { return struct{}{} },
}

// RegisterWrite registers the element operation set(bc, gid, v), run under the
// write bracket.  elemName and groupName name its per-element and bulk forms;
// they must be unique and stable across cooperating processes (derive them
// from the codec names, never from registration order), registering a name
// twice panics, and an empty name leaves that form out — a family registers
// exactly the operations it has.  The operation crosses wires by value iff
// both codecs do.
func RegisterWrite[G any, B BContainer, V any](elemName, groupName string, gidCodec transport.Codec[G], valCodec transport.Codec[V], set func(bc B, gid G, v V)) *ElemOp[G, B, V, struct{}] {
	return newElemOp(elemName, groupName, Write, gidCodec, valCodec, unitCodec,
		func(_ *runtime.Location, bc B, gid G, v V, _ int) struct{} {
			set(bc, gid, v)
			return struct{}{}
		})
}

// RegisterRead registers the element operation get(bc, gid) -> R, run under
// the read bracket; see RegisterWrite for the names.
func RegisterRead[G any, B BContainer, R any](elemName, groupName string, gidCodec transport.Codec[G], retCodec transport.Codec[R], get func(bc B, gid G) R) *ElemOp[G, B, struct{}, R] {
	return newElemOp(elemName, groupName, Read, gidCodec, unitCodec, retCodec,
		func(_ *runtime.Location, bc B, gid G, _ struct{}, _ int) R { return get(bc, gid) })
}

func newElemOp[G any, B BContainer, A any, R any](
	elemName, groupName string, mode AccessMode,
	gidCodec transport.Codec[G], argCodec transport.Codec[A], retCodec transport.Codec[R],
	apply func(loc *runtime.Location, bc B, gid G, arg A, k int) R,
) *ElemOp[G, B, A, R] {
	o := &ElemOp[G, B, A, R]{mode: mode, apply: apply, retBytes: runtime.SizerFor[R]()}
	o.recs.New = func() any { return new(elemRec[G, A, R]) }
	o.groups.New = func() any { return new(group[G, A, R]) }
	o.rets.New = func() any { return new(groupRet[R]) }
	o.results.New = func() any { return &result[R]{w: runtime.MakeWaiter()} }
	if elemName != "" {
		o.elem = runtime.RegisterOpRet(elemName, o.elemCodec(elemName, gidCodec, argCodec), retCodec,
			func(obj any, _ *runtime.Location, a *elemRec[G, A, R]) { o.hop(obj.(*Container[G, B]), a) },
			o.putRec, nil, func(a *elemRec[G, A, R]) bool { return a.res != nil })
	}
	if groupName != "" {
		o.group = runtime.RegisterOpRet(groupName,
			o.groupCodec(groupName, gidCodec, argCodec), o.groupRetCodec(groupName, retCodec),
			func(obj any, _ *runtime.Location, g *group[G, A, R]) {
				o.walk(obj.(*Container[G, B]), g)
				o.putGroup(g)
			},
			o.putGroup, o.putRet, nil)
	}
	return o
}

// local is the step every flavour and every hop starts from: resolve gid once
// (enter) and, when its base container is stored here, apply the operation in
// place inside the data bracket — a local element method costs that and
// nothing else: no record, no result cell, no counter.  Otherwise dest is the
// location to continue at.
func (o *ElemOp[G, B, A, R]) local(c *Container[G, B], gid G, mode AccessMode, arg A, hops int) (r R, dest int, done bool) {
	bc, bcid, dest, done := c.enter(gid, mode, hops)
	if done {
		r = o.apply(c.loc, bc, gid, arg, 0)
		c.ths.DataAccessPost(bcid, mode)
	}
	return r, dest, done
}

// Async runs the operation on gid's owner without waiting: completion is
// guaranteed by the next Fence, or by a later read of the same element from
// this location.  bytes is the simulated marshalled size of arg; a remote
// request additionally accounts the fixed descriptor overhead inside the RTS.
// Under the Sequential model asynchronous methods execute synchronously
// (Claim 3 of Chapter VII).
func (o *ElemOp[G, B, A, R]) Async(c *Container[G, B], gid G, arg A, bytes int) {
	o.async(c, gid, o.mode, arg, bytes)
}

func (o *ElemOp[G, B, A, R]) async(c *Container[G, B], gid G, mode AccessMode, arg A, bytes int) {
	if c.Sequential() {
		o.sync(c, gid, mode, arg)
		return
	}
	if _, dest, done := o.local(c, gid, mode, arg, 0); !done {
		o.send(c, dest, o.newRec(gid, mode, arg, bytes))
	}
}

// Sync runs the operation and blocks for its result: in place when local, by
// a round trip otherwise.
func (o *ElemOp[G, B, A, R]) Sync(c *Container[G, B], gid G, arg A) R {
	return o.sync(c, gid, o.mode, arg)
}

func (o *ElemOp[G, B, A, R]) sync(c *Container[G, B], gid G, mode AccessMode, arg A) R {
	r, dest, done := o.local(c, gid, mode, arg, 0)
	if done {
		return r
	}
	a, res := o.newRec(gid, mode, arg, 0), o.results.Get().(*result[R])
	if c.loc.OpCrossesByValue(o.elem) {
		a.origin = c.loc.ID()
		a.token = c.loc.RegisterToken(func(v any) bool {
			// Comma-ok: a closure instance's R is `any`, and a nil result does
			// not assert to it.
			r, _ := v.(R)
			res.set(r)
			return true
		})
	} else {
		a.res = res
	}
	o.send(c, dest, a)
	// Wait unwinds if the machine aborts — the answer died with a faulting
	// handler — and the cell is then not pooled.
	c.loc.Wait(&res.w)
	var none R
	r, res.v = res.v, none
	o.results.Put(res)
	return r
}

// Split starts the operation and returns a future for its result (the paper's
// pc_future), so the caller can overlap other work before Get.
func (o *ElemOp[G, B, A, R]) Split(c *Container[G, B], gid G, arg A) *runtime.Future {
	return o.split(c, gid, o.mode, arg)
}

func (o *ElemOp[G, B, A, R]) split(c *Container[G, B], gid G, mode AccessMode, arg A) *runtime.Future {
	r, dest, done := o.local(c, gid, mode, arg, 0)
	if done {
		fut := runtime.NewFuture()
		fut.Complete(r)
		return fut
	}
	// Wired to the machine's abort, so a Get whose answer died with a faulting
	// handler unwinds instead of blocking.
	a, fut := o.newRec(gid, mode, arg, 0), c.loc.NewAbortableFuture()
	if c.loc.OpCrossesByValue(o.elem) {
		a.origin = c.loc.ID()
		a.token = c.loc.RegisterToken(func(v any) bool {
			fut.Complete(v)
			return true
		})
	} else {
		a.fut = fut
	}
	o.send(c, dest, a)
	return fut
}

// newRec builds the element record of a request local could not serve: hop 1,
// on its way to the location local resolved.
func (o *ElemOp[G, B, A, R]) newRec(gid G, mode AccessMode, arg A, bytes int) *elemRec[G, A, R] {
	a := o.recs.Get().(*elemRec[G, A, R])
	a.gid, a.arg, a.mode, a.bytes, a.hops = gid, arg, mode, bytes, 1
	return a
}

// send is the one place an element record leaves a location.  A request whose
// result someone may be blocked on bypasses the aggregation buffer (earlier
// buffered requests to dest are flushed first, so per-pair FIFO holds).
func (o *ElemOp[G, B, A, R]) send(c *Container[G, B], dest int, a *elemRec[G, A, R]) {
	if a.wantsReply() {
		c.loc.AsyncRMIUrgentOp(dest, c.handle, o.elem, a)
	} else {
		c.loc.AsyncRMIOpSized(dest, c.handle, a.bytes, o.elem, a)
	}
}

// hop is the element operation's handler: one more resolution step of a
// shipped request.  At the owner the operation is applied, its result sent
// home — one response message carrying the marshalled value — and the record
// recycled; anywhere else (the sender only knew a hint, or the element moved)
// the record travels onward, the paper's method forwarding.
func (o *ElemOp[G, B, A, R]) hop(c *Container[G, B], a *elemRec[G, A, R]) {
	r, dest, done := o.local(c, a.gid, a.mode, a.arg, a.hops)
	if !done {
		a.hops++
		o.send(c, dest, a)
		return
	}
	if a.wantsReply() {
		c.loc.AccountReply(o.retBytes(r))
		switch {
		case a.res != nil:
			a.res.set(r)
		case a.fut != nil:
			a.fut.Complete(r)
		default:
			c.loc.ReplyOp(a.origin, c.handle, o.elem, a.token, r)
		}
	}
	o.putRec(a)
}
