package core

import (
	"reflect"
	"sync"

	"repro/internal/runtime"
	"repro/internal/transport"
)

// This file holds the REGISTERED form of the distribution manager's element
// and bulk method skeletons (see internal/runtime/ops.go): instead of a Go
// closure per hop, these paths ship a pooled argument record under a stable
// operation ID, so a request allocates nothing in steady state and — when the
// element types have wire codecs — is self-decoding on wire transports and
// can cross a process boundary.  Whether they do is not this package's
// concern: the records' codecs are derived from the element codecs
// (transport.Derive) and handed to the registry as they come.
//
// Every path accounts exactly like the closure skeleton in distribution.go
// and bulk.go — same resolution brackets, same RMI flavour, same simulated
// byte sizes, same reply accounting — so an experiment's Stats are identical
// across transports (the counter-identity invariant the equivalence suite
// pins).
//
// Value-returning operations cannot carry a *Future through bytes: when the
// registry says a request crosses by value (Location.OpCrossesByValue) the
// origin parks a completion callback under a per-location token
// (Location.RegisterToken) and the owning location answers with
// Location.ReplyOp.  Otherwise the argument record reaches the handler by
// pointer and the future/tracker pointers ride inside it.

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

// ElemOps is one container family's registered element operations at a fixed
// element type: asynchronous set, synchronous get, and their bulk
// counterparts.  Construct it once per (container family, element type) with
// RegisterElemOps — inside OncePerType when the family is generic — and route
// the container's Set/Get/SetBulk/GetBulk through it.
type ElemOps[G any, B BContainer, V any] struct {
	name     string
	setApply func(bc B, gid G, v V)
	getApply func(bc B, gid G) V

	set     runtime.OpID
	get     runtime.OpID
	bulkSet runtime.OpID
	bulkGet runtime.OpID
}

// Name returns the registration name prefix.
func (o *ElemOps[G, B, V]) Name() string { return o.name }

// OpIDs returns the four registered operation IDs (set, get, bulk-set,
// bulk-get) for tests and diagnostics.
func (o *ElemOps[G, B, V]) OpIDs() [4]runtime.OpID {
	return [4]runtime.OpID{o.set, o.get, o.bulkSet, o.bulkGet}
}

// Pooled argument records.  Ownership follows the request: a locally applied
// argument is recycled by the hop that consumed it, a shipped argument
// belongs to the destination handler (in-process or rendezvous delivery) or
// is recycled by the wire adapter after encoding (self-decoding sends).  The
// pools are untyped and shared across instantiations; a record that comes
// back under the wrong type parameters is dropped for the GC, like
// bulkArgsPool.

// esArgs is one element-set operation in flight.
type esArgs[G any, V any] struct {
	gid   G
	val   V
	bytes int
	hops  int
}

// egArgs is one element-get operation in flight.  fut rides whenever the
// record travels by pointer; a request that crosses by value is completed
// through the (origin, token) pair instead and fut stays nil.
type egArgs[G any, V any] struct {
	gid    G
	hops   int
	origin int
	token  uint64
	fut    *runtime.Future // never encoded
}

// bsArgs is one shipped bulk-set group: compact parallel slices owned by the
// record.
type bsArgs[G any, V any] struct {
	gids       []G
	vals       []V
	bytesPerOp int
	hops       int
}

// bgArgs is one shipped bulk-get group.  poss maps each element to its
// position in the origin's result slice.  out/tr ride whenever the record
// travels by pointer (like egArgs.fut); a group that crossed by value sends
// its gathered values home under the (origin, token) pair.
type bgArgs[G any, V any] struct {
	gids       []G
	poss       []int
	bytesPerOp int
	hops       int
	origin     int
	token      uint64
	out        []V          // never encoded
	tr         *bulkTracker // never encoded
}

// bgRet is one bulk-get reply: the gathered values plus their positions in
// the origin's result slice.
type bgRet[V any] struct {
	poss []int
	vals []V
}

var (
	esArgsPool sync.Pool
	egArgsPool sync.Pool
	bsArgsPool sync.Pool
	bgArgsPool sync.Pool
	bgRetPool  sync.Pool
)

func getEsArgs[G any, V any]() *esArgs[G, V] {
	if v := esArgsPool.Get(); v != nil {
		if a, ok := v.(*esArgs[G, V]); ok {
			return a
		}
	}
	return new(esArgs[G, V])
}

func putEsArgs[G any, V any](a *esArgs[G, V]) {
	*a = esArgs[G, V]{}
	esArgsPool.Put(a)
}

func getEgArgs[G any, V any]() *egArgs[G, V] {
	if v := egArgsPool.Get(); v != nil {
		if a, ok := v.(*egArgs[G, V]); ok {
			return a
		}
	}
	return new(egArgs[G, V])
}

func putEgArgs[G any, V any](a *egArgs[G, V]) {
	*a = egArgs[G, V]{}
	egArgsPool.Put(a)
}

func getBsArgs[G any, V any]() *bsArgs[G, V] {
	if v := bsArgsPool.Get(); v != nil {
		if a, ok := v.(*bsArgs[G, V]); ok {
			return a
		}
	}
	return new(bsArgs[G, V])
}

func putBsArgs[G any, V any](a *bsArgs[G, V]) {
	// Truncate rather than reallocate: the compact slices' capacity is the
	// point of pooling.  Stale elements are overwritten by the next fill.
	a.gids = a.gids[:0]
	a.vals = a.vals[:0]
	a.bytesPerOp, a.hops = 0, 0
	bsArgsPool.Put(a)
}

func getBgArgs[G any, V any]() *bgArgs[G, V] {
	if v := bgArgsPool.Get(); v != nil {
		if a, ok := v.(*bgArgs[G, V]); ok {
			return a
		}
	}
	return new(bgArgs[G, V])
}

func putBgArgs[G any, V any](a *bgArgs[G, V]) {
	a.gids = a.gids[:0]
	a.poss = a.poss[:0]
	a.bytesPerOp, a.hops, a.origin, a.token = 0, 0, 0, 0
	a.out, a.tr = nil, nil
	bgArgsPool.Put(a)
}

func getBgRet[V any]() *bgRet[V] {
	if v := bgRetPool.Get(); v != nil {
		if r, ok := v.(*bgRet[V]); ok {
			return r
		}
	}
	return new(bgRet[V])
}

func putBgRet[V any](r *bgRet[V]) {
	r.poss = r.poss[:0]
	r.vals = r.vals[:0]
	bgRetPool.Put(r)
}

// RegisterElemOps registers the four element operations of one container
// family at one element type and returns their handle set.  name must be
// unique and stable across cooperating processes (derive it from the codec
// names, never from registration order); registering the same name twice
// panics, so generic callers wrap the call in OncePerType.  The operations
// cross wires by value iff both codecs do.  setApply/getApply run at the
// owning base container under the container's data bracket.
func RegisterElemOps[G any, B BContainer, V any](
	name string,
	gidCodec transport.Codec[G],
	valCodec transport.Codec[V],
	setApply func(bc B, gid G, v V),
	getApply func(bc B, gid G) V,
) *ElemOps[G, B, V] {
	o := &ElemOps[G, B, V]{name: name, setApply: setApply, getApply: getApply}

	esCodec := transport.Derive(name+"/set-args",
		func(b *transport.Buffer, a *esArgs[G, V]) {
			gidCodec.Encode(b, a.gid)
			valCodec.Encode(b, a.val)
			b.PutVarint(int64(a.bytes))
			b.PutVarint(int64(a.hops))
		},
		func(b *transport.Buffer) *esArgs[G, V] {
			a := getEsArgs[G, V]()
			a.gid = gidCodec.Decode(b)
			a.val = valCodec.Decode(b)
			a.bytes = int(b.Varint())
			a.hops = int(b.Varint())
			return a
		},
		gidCodec, valCodec)
	o.set = runtime.RegisterOp(name+"/set", esCodec,
		func(obj any, _ *runtime.Location, a *esArgs[G, V]) {
			o.setHop(obj.(*Container[G, B]), a)
		}, putEsArgs[G, V])

	egCodec := transport.Derive(name+"/get-args",
		func(b *transport.Buffer, a *egArgs[G, V]) {
			gidCodec.Encode(b, a.gid)
			b.PutVarint(int64(a.hops))
			b.PutVarint(int64(a.origin))
			b.PutUvarint(a.token)
		},
		func(b *transport.Buffer) *egArgs[G, V] {
			a := getEgArgs[G, V]()
			a.gid = gidCodec.Decode(b)
			a.hops = int(b.Varint())
			a.origin = int(b.Varint())
			a.token = b.Uvarint()
			return a
		},
		gidCodec)
	o.get = runtime.RegisterOpRet(name+"/get", egCodec, valCodec,
		func(obj any, _ *runtime.Location, a *egArgs[G, V]) {
			o.getHop(obj.(*Container[G, B]), a)
		}, putEgArgs[G, V])

	bsCodec := transport.Derive(name+"/bulk-set-args",
		func(b *transport.Buffer, a *bsArgs[G, V]) {
			b.PutUvarint(uint64(len(a.gids)))
			for i := range a.gids {
				gidCodec.Encode(b, a.gids[i])
				valCodec.Encode(b, a.vals[i])
			}
			b.PutVarint(int64(a.bytesPerOp))
			b.PutVarint(int64(a.hops))
		},
		func(b *transport.Buffer) *bsArgs[G, V] {
			a := getBsArgs[G, V]()
			n := int(b.Uvarint())
			for i := 0; i < n; i++ {
				if b.Err() != nil {
					break
				}
				a.gids = append(a.gids, gidCodec.Decode(b))
				a.vals = append(a.vals, valCodec.Decode(b))
			}
			a.bytesPerOp = int(b.Varint())
			a.hops = int(b.Varint())
			return a
		},
		gidCodec, valCodec)
	o.bulkSet = runtime.RegisterOp(name+"/bulk-set", bsCodec,
		func(obj any, _ *runtime.Location, a *bsArgs[G, V]) {
			c := obj.(*Container[G, B])
			o.bulkSetHop(c, a.gids, a.vals, a.bytesPerOp, a.hops)
			putBsArgs(a)
		}, putBsArgs[G, V])

	bgCodec := transport.Derive(name+"/bulk-get-args",
		func(b *transport.Buffer, a *bgArgs[G, V]) {
			b.PutUvarint(uint64(len(a.gids)))
			for i := range a.gids {
				gidCodec.Encode(b, a.gids[i])
				b.PutVarint(int64(a.poss[i]))
			}
			b.PutVarint(int64(a.bytesPerOp))
			b.PutVarint(int64(a.hops))
			b.PutVarint(int64(a.origin))
			b.PutUvarint(a.token)
		},
		func(b *transport.Buffer) *bgArgs[G, V] {
			a := getBgArgs[G, V]()
			n := int(b.Uvarint())
			for i := 0; i < n; i++ {
				if b.Err() != nil {
					break
				}
				a.gids = append(a.gids, gidCodec.Decode(b))
				a.poss = append(a.poss, int(b.Varint()))
			}
			a.bytesPerOp = int(b.Varint())
			a.hops = int(b.Varint())
			a.origin = int(b.Varint())
			a.token = b.Uvarint()
			return a
		},
		gidCodec)
	brCodec := transport.Derive(name+"/bulk-get-ret",
		func(b *transport.Buffer, r *bgRet[V]) {
			b.PutUvarint(uint64(len(r.poss)))
			for i := range r.poss {
				b.PutVarint(int64(r.poss[i]))
				valCodec.Encode(b, r.vals[i])
			}
		},
		func(b *transport.Buffer) *bgRet[V] {
			r := getBgRet[V]()
			n := int(b.Uvarint())
			for i := 0; i < n; i++ {
				if b.Err() != nil {
					break
				}
				r.poss = append(r.poss, int(b.Varint()))
				r.vals = append(r.vals, valCodec.Decode(b))
			}
			return r
		},
		valCodec)
	o.bulkGet = runtime.RegisterOpRet(name+"/bulk-get", bgCodec, brCodec,
		func(obj any, _ *runtime.Location, a *bgArgs[G, V]) {
			c := obj.(*Container[G, B])
			o.bulkGetHop(c, a.gids, a.poss, a.bytesPerOp, a.hops, a.origin, a.token, a.out, a.tr)
			putBgArgs(a)
		}, putBgArgs[G, V])

	return o
}

// Set stores v at gid asynchronously; bytes is the simulated marshalled size
// of the value.  A local element is written in place (no counters, no record);
// a remote one ships a pooled record to the location enter resolved.
func (o *ElemOps[G, B, V]) Set(c *Container[G, B], gid G, v V, bytes int) {
	if c.Sequential() {
		// Asynchronous methods execute synchronously under the sequential
		// model; SetElem's closure round trip is that execution.
		SetElem(c, gid, v, bytes, o.setApply)
		return
	}
	bc, bcid, dest, local := c.enter(gid, Write, 0)
	if local {
		o.setApply(bc, gid, v)
		c.ths.DataAccessPost(bcid, Write)
		return
	}
	a := getEsArgs[G, V]()
	a.gid, a.val, a.bytes, a.hops = gid, v, bytes, 1
	c.loc.AsyncRMIOpSized(dest, c.handle, bytes, o.set, a)
}

// setHop is the set op's handler: one more resolution step of a shipped set.
// At the owner the value is applied and the record recycled; anywhere else
// the record travels onward.
func (o *ElemOps[G, B, V]) setHop(c *Container[G, B], a *esArgs[G, V]) {
	bc, bcid, dest, local := c.enter(a.gid, Write, a.hops)
	if local {
		o.setApply(bc, a.gid, a.val)
		c.ths.DataAccessPost(bcid, Write)
		putEsArgs(a)
		return
	}
	a.hops++
	c.loc.AsyncRMIOpSized(dest, c.handle, a.bytes, o.set, a)
}

// Get returns the element at gid synchronously: read in place when local, by
// a blocking round trip otherwise.
func (o *ElemOps[G, B, V]) Get(c *Container[G, B], gid G) V {
	bc, bcid, dest, local := c.enter(gid, Read, 0)
	if local {
		v := o.getApply(bc, gid)
		c.ths.DataAccessPost(bcid, Read)
		return v
	}
	return o.getFrom(c, gid, dest).Get().(V)
}

// GetSplit starts a split-phase read and returns a future for its value.
func (o *ElemOps[G, B, V]) GetSplit(c *Container[G, B], gid G) *runtime.Future {
	bc, bcid, dest, local := c.enter(gid, Read, 0)
	if !local {
		return o.getFrom(c, gid, dest)
	}
	fut := runtime.NewFuture()
	fut.Complete(o.getApply(bc, gid))
	c.ths.DataAccessPost(bcid, Read)
	return fut
}

// getFrom ships a read of gid to dest, the location enter resolved, and
// returns the future its value completes.  When the request crosses by value
// the completion travels home as a KindReply request addressed by a
// registered token; otherwise the future pointer rides inside the argument.
// Forwarding hops are urgent, so a blocked Get makes progress.
func (o *ElemOps[G, B, V]) getFrom(c *Container[G, B], gid G, dest int) *runtime.Future {
	fut := c.loc.NewAbortableFuture()
	a := getEgArgs[G, V]()
	a.gid, a.hops = gid, 1
	if c.loc.OpCrossesByValue(o.get) {
		a.origin = c.loc.ID()
		a.token = c.loc.RegisterToken(func(v any) bool {
			fut.Complete(v)
			return true
		})
	} else {
		a.fut = fut
	}
	c.loc.AsyncRMIUrgentOp(dest, c.handle, o.get, a)
	return fut
}

// getHop is the get op's handler: one more resolution step of a shipped get.
// At the owner the value is read under the data bracket, the reply traffic
// accounted (one response message carrying the marshalled value) and the
// completion routed through the future or the reply op.
func (o *ElemOps[G, B, V]) getHop(c *Container[G, B], a *egArgs[G, V]) {
	bc, bcid, dest, local := c.enter(a.gid, Read, a.hops)
	if local {
		v := o.getApply(bc, a.gid)
		c.ths.DataAccessPost(bcid, Read)
		c.loc.AccountReply(runtime.PayloadBytes(v))
		if a.fut != nil {
			a.fut.Complete(v)
		} else {
			c.loc.ReplyOp(a.origin, c.handle, o.get, a.token, v)
		}
		putEgArgs(a)
		return
	}
	a.hops++
	c.loc.AsyncRMIUrgentOp(dest, c.handle, o.get, a)
}

// SetBulk stores vals[k] at gids[k] for every k, asynchronously.  Both slices
// are the caller's; shipped groups copy their subsets into pooled records,
// so the caller's slices are not retained past the call.
func (o *ElemOps[G, B, V]) SetBulk(c *Container[G, B], gids []G, vals []V, bytesPerOp int) {
	if len(gids) == 0 {
		return
	}
	if c.Sequential() {
		c.InvokeBulkSync(gids, Write, bytesPerOp, func(loc *runtime.Location, bc B, k int) {
			o.setApply(bc, gids[k], vals[k])
		})
		return
	}
	o.bulkSetHop(c, gids, vals, bytesPerOp, 0)
}

// bulkSetHop performs one resolution step of a bulk set over compact parallel
// slices: one metadata bracket resolves the whole batch (resolveGroups),
// local groups apply under one data bracket per base container, and every
// other group ships ONE bulk request carrying its subset.
func (o *ElemOps[G, B, V]) bulkSetHop(c *Container[G, B], gids []G, vals []V, bytesPerOp, hops int) {
	self := c.loc.ID()
	s := c.resolveGroups(gids, nil, hops)
	defer putBulkScratch(s)
	for gi := range s.groups {
		g := &s.groups[gi]
		if g.dest == self && g.bcid >= 0 {
			bc, ok := c.locMgr.Get(g.bcid)
			if !ok {
				// Metadata says local but the storage moved (transient
				// redistribution window): retry the group as a forward.
				o.shipSetGroup(c, self, gids, vals, g.idxs, bytesPerOp, hops+1)
				putBulkIdxs(g.idxs)
				g.idxs = nil
				continue
			}
			c.ths.DataAccessPre(g.bcid, Write)
			for _, k := range g.idxs {
				o.setApply(bc, gids[k], vals[k])
			}
			c.ths.DataAccessPost(g.bcid, Write)
			putBulkIdxs(g.idxs)
			g.idxs = nil
			continue
		}
		o.shipSetGroup(c, g.dest, gids, vals, g.idxs, bytesPerOp, hops+1)
		putBulkIdxs(g.idxs)
		g.idxs = nil
	}
}

// shipSetGroup copies one group's subset into a pooled record and ships it
// as one sized bulk request under the bulk-set op.
func (o *ElemOps[G, B, V]) shipSetGroup(c *Container[G, B], dest int, gids []G, vals []V, group []int, bytesPerOp, hops int) {
	a := getBsArgs[G, V]()
	for _, k := range group {
		a.gids = append(a.gids, gids[k])
		a.vals = append(a.vals, vals[k])
	}
	a.bytesPerOp, a.hops = bytesPerOp, hops
	c.loc.AsyncRMIBulkOp(dest, c.handle, len(group), bytesPerOp*len(group), o.bulkSet, a)
}

// GetBulk reads the elements named by gids into out (out[k] receives the
// value of gids[k]) and blocks until all of them arrived.
func (o *ElemOps[G, B, V]) GetBulk(c *Container[G, B], gids []G, out []V, bytesPerOp int) {
	if len(gids) == 0 {
		return
	}
	if c.Sequential() {
		c.InvokeBulkSync(gids, Read, bytesPerOp, func(loc *runtime.Location, bc B, k int) {
			out[k] = o.getApply(bc, gids[k])
		})
		return
	}
	tr := &bulkTracker{done: make(chan struct{})}
	tr.remaining.Store(int64(len(gids)))
	var token uint64
	byValue := c.loc.OpCrossesByValue(o.bulkGet)
	if byValue {
		// Remote groups answer with one bgRet per group; the callback
		// scatters it into out and stays registered until every element
		// arrived (it never self-removes — groups arrive independently).
		token = c.loc.RegisterToken(func(v any) bool {
			r := v.(*bgRet[V])
			for i, pos := range r.poss {
				out[pos] = r.vals[i]
			}
			n := len(r.poss)
			putBgRet(r)
			tr.complete(n)
			return false
		})
	}
	o.bulkGetHop(c, gids, nil, bytesPerOp, 0, c.loc.ID(), token, out, tr)
	c.loc.WaitDone(tr.done)
	if byValue {
		c.loc.UnregisterToken(token)
	}
}

// bulkGetHop performs one resolution step of a bulk get.  poss maps each
// element of gids to its position in the origin's result slice (nil means
// identity — the origin's own call).  out/tr are non-nil while the group has
// travelled by pointer; a group that crossed by value answers with ReplyOp
// instead.
func (o *ElemOps[G, B, V]) bulkGetHop(c *Container[G, B], gids []G, poss []int, bytesPerOp, hops, origin int, token uint64, out []V, tr *bulkTracker) {
	self := c.loc.ID()
	s := c.resolveGroups(gids, nil, hops)
	defer putBulkScratch(s)
	for gi := range s.groups {
		g := &s.groups[gi]
		if g.dest == self && g.bcid >= 0 {
			bc, ok := c.locMgr.Get(g.bcid)
			if !ok {
				o.shipGetGroup(c, self, gids, poss, g.idxs, bytesPerOp, hops+1, origin, token, out, tr)
				putBulkIdxs(g.idxs)
				g.idxs = nil
				continue
			}
			c.ths.DataAccessPre(g.bcid, Read)
			if tr != nil {
				// In-process completion: scatter straight into the origin's
				// result slice, exactly like the closure path's action.
				for _, k := range g.idxs {
					pos := k
					if poss != nil {
						pos = poss[k]
					}
					out[pos] = o.getApply(bc, gids[k])
				}
				c.ths.DataAccessPost(g.bcid, Read)
				if hops > 0 {
					// This group was shipped here: its gathered results
					// travel back as one response message.
					c.loc.AccountReply(bytesPerOp * len(g.idxs))
				}
				tr.complete(len(g.idxs))
			} else {
				// The group crossed by value: gather into one reply and send
				// it home under the origin's token.
				r := getBgRet[V]()
				for _, k := range g.idxs {
					pos := k
					if poss != nil {
						pos = poss[k]
					}
					r.poss = append(r.poss, pos)
					r.vals = append(r.vals, o.getApply(bc, gids[k]))
				}
				c.ths.DataAccessPost(g.bcid, Read)
				c.loc.AccountReply(bytesPerOp * len(g.idxs))
				c.loc.ReplyOp(origin, c.handle, o.bulkGet, token, r)
			}
			putBulkIdxs(g.idxs)
			g.idxs = nil
			continue
		}
		o.shipGetGroup(c, g.dest, gids, poss, g.idxs, bytesPerOp, hops+1, origin, token, out, tr)
		putBulkIdxs(g.idxs)
		g.idxs = nil
	}
}

// shipGetGroup copies one group's subset (GIDs plus origin positions) into a
// pooled record and ships it under the bulk-get op.
func (o *ElemOps[G, B, V]) shipGetGroup(c *Container[G, B], dest int, gids []G, poss []int, group []int, bytesPerOp, hops, origin int, token uint64, out []V, tr *bulkTracker) {
	a := getBgArgs[G, V]()
	for _, k := range group {
		pos := k
		if poss != nil {
			pos = poss[k]
		}
		a.gids = append(a.gids, gids[k])
		a.poss = append(a.poss, pos)
	}
	a.bytesPerOp, a.hops, a.origin, a.token = bytesPerOp, hops, origin, token
	a.out, a.tr = out, tr
	c.loc.AsyncRMIBulkOp(dest, c.handle, len(group), bytesPerOp*len(group), o.bulkGet, a)
}
