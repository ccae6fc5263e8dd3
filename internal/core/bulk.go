package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// This file implements the bulk flavours of the element operation: the
// semantic-batching counterpart of Async/Sync.  Where the per-element
// flavours resolve, lock and (for remote GIDs) ship one request per element —
// leaving message amortisation to the RTS aggregation buffer — a bulk call
// takes a whole slice of GIDs, resolves them all under ONE metadata bracket,
// applies every local group under ONE data bracket per base container, and
// ships ONE sized RMI per destination carrying that destination's entire
// group.  The destination performs a single handle lookup for the whole batch
// and repeats the same walk for any element that needs forwarding.
//
// The walk is on the container hot path, so its working state is pooled:
// resolution targets and group lists live in a recycled scratch, group index
// slices and group records come from shared pools — steady-state bulk traffic
// allocates nothing per call beyond what the caller's own func captures.

// bulkTracker counts the outstanding element operations of one synchronous
// bulk call.  Remote handlers (and forwarded stragglers) decrement it as they
// apply their groups; the issuing goroutine is parked on w.  Pooled; a caller
// the machine's abort unwound leaves its tracker to the collector
// (runtime.Waiter says why).
type bulkTracker struct {
	remaining atomic.Int64
	w         runtime.Waiter
}

var bulkTrackers = sync.Pool{New: func() any { return &bulkTracker{w: runtime.MakeWaiter()} }}

// complete retires n element operations, waking the caller on the last one.
func (t *bulkTracker) complete(n int) {
	if t.remaining.Add(-int64(n)) == 0 {
		t.w.Wake()
	}
}

// group is what one bulk walk works on: at the origin a view of the caller's
// own slices, held on the stack; after a hop a pooled record owning compact
// copies of its share — so the caller's slices are never retained past the
// call.  (A closure instance's func is: it captures what the caller gave it.)
type group[G any, A any, R any] struct {
	gids []G
	args []A        // per-element arguments; empty: every element takes one
	one  A          // never encoded: only closure instances have one
	poss []int      // positions in the origin's slices; empty at the origin: identity
	mode AccessMode // never encoded: a decoded group takes its operation's
	// bytesPerOp is the simulated marshalled size of one element operation; a
	// shipped group accounts len*bytesPerOp bytes on one message.
	bytesPerOp int
	hops       int
	// Where a synchronous call's results go: out and tr while the group
	// travels by pointer, (origin, token) once it crossed by value.
	origin int
	token  uint64
	out    []R          // never encoded
	tr     *bulkTracker // never encoded
}

func (o *ElemOp[G, B, A, R]) putGroup(g *group[G, A, R]) {
	// Truncate rather than reallocate: the compact slices' capacity is the
	// point of pooling.  Stale elements are overwritten by the next fill.
	*g = group[G, A, R]{gids: g.gids[:0], args: g.args[:0], poss: g.poss[:0]}
	o.groups.Put(g)
}

// groupCodec marshals a shipped group: the count and the header, then the
// GIDs, the arguments and the positions each as one column (the element
// codecs' slice form), so a group of n costs three loops and not 3n codec
// calls.  Positions travel only when a reply will need them; one, out and tr
// never do.  The decoder grows the pooled record's slices once, from a count
// it has checked against the bytes that are left — every GID takes at least
// one — so a corrupt count is a decode error and not an allocation.
func (o *ElemOp[G, B, A, R]) groupCodec(name string, gidCodec transport.Codec[G], argCodec transport.Codec[A]) transport.Codec[*group[G, A, R]] {
	return transport.Derive(name+"-args",
		func(b *transport.Buffer, g *group[G, A, R]) {
			b.PutUvarint(uint64(len(g.gids)))
			b.PutBool(len(g.args) > 0)
			b.PutUvarint(g.token)
			if g.token != 0 {
				b.PutVarint(int64(g.origin))
			}
			b.PutVarint(int64(g.bytesPerOp))
			b.PutVarint(int64(g.hops))
			gidCodec.EncodeSlice(b, g.gids)
			argCodec.EncodeSlice(b, g.args)
			if g.token != 0 {
				transport.IntCodec.EncodeSlice(b, g.poss)
			}
		},
		func(b *transport.Buffer) *group[G, A, R] {
			g := o.groups.Get().(*group[G, A, R])
			n, hasArgs := columnLen(b), b.Bool()
			if g.token = b.Uvarint(); g.token != 0 {
				g.origin = int(b.Varint())
			}
			g.mode, g.bytesPerOp, g.hops = o.mode, int(b.Varint()), int(b.Varint())
			g.gids = slices.Grow(g.gids, n)[:n]
			gidCodec.DecodeSlice(b, g.gids)
			if hasArgs {
				g.args = slices.Grow(g.args, n)[:n]
				argCodec.DecodeSlice(b, g.args)
			}
			if g.token != 0 {
				g.poss = slices.Grow(g.poss, n)[:n]
				transport.IntCodec.DecodeSlice(b, g.poss)
			}
			if b.Err() != nil {
				o.putGroup(g) // a corrupt frame yields no record and costs the pool none
				return nil
			}
			return g
		},
		gidCodec, argCodec)
}

// columnLen decodes the element count a record's columns are sized from.  A
// count beyond the bytes left cannot be honest; it fails the decode and reads
// as zero, so nothing is allocated for it.
func columnLen(b *transport.Buffer) int {
	n := b.Uvarint()
	if n > uint64(b.Remaining()) {
		b.Fail("corrupt record: %d elements, %d bytes left", n, b.Remaining())
		return 0
	}
	return int(n)
}

// BulkAsync runs the operation once for every element of gids, with args[k]
// as gids[k]'s argument (nil when there is none), and returns as soon as all
// per-destination group requests are issued.  Shipped groups copy their
// share: neither slice is retained past the call.
//
// Ordering: a bulk request flushes the per-element aggregation buffer of its
// destination before delivery, so bulk and per-element methods on the same
// (source, destination) pair execute in invocation order.  Elements within
// one call execute in slice order per destination; elements owned by
// different destinations race, exactly like independent per-element calls.
func (o *ElemOp[G, B, A, R]) BulkAsync(c *Container[G, B], gids []G, args []A, bytesPerOp int) {
	var none A
	o.bulk(c, gids, args, none, nil, o.mode, bytesPerOp, false)
}

// BulkSync is BulkAsync that blocks until every element — local, remote and
// forwarded — has been applied, with out[k] receiving gids[k]'s result (out
// may be nil).  Every k is written exactly once and the completion signal
// orders those writes before the return.
func (o *ElemOp[G, B, A, R]) BulkSync(c *Container[G, B], gids []G, args []A, out []R, bytesPerOp int) {
	var none A
	o.bulk(c, gids, args, none, out, o.mode, bytesPerOp, true)
}

// bulk is the origin of both bulk flavours.  Under the Sequential model the
// asynchronous one waits too (Claim 3 of Chapter VII).
func (o *ElemOp[G, B, A, R]) bulk(c *Container[G, B], gids []G, args []A, one A, out []R, mode AccessMode, bytesPerOp int, wait bool) {
	if len(gids) == 0 {
		return
	}
	g := group[G, A, R]{gids: gids, args: args, one: one, out: out, mode: mode, bytesPerOp: bytesPerOp}
	if !wait && !c.Sequential() {
		o.walk(c, &g)
		return
	}
	tr := bulkTrackers.Get().(*bulkTracker)
	tr.remaining.Store(int64(len(gids)))
	g.tr = tr
	if c.loc.OpCrossesByValue(o.group) {
		// Remote groups answer with one groupRet each; the callback scatters
		// it into out and stays registered until every element arrived (it
		// never self-removes — groups arrive independently).
		g.origin = c.loc.ID()
		g.token = c.loc.RegisterToken(func(v any) bool {
			r := v.(*groupRet[R])
			if out != nil {
				for i, pos := range r.poss {
					out[pos] = r.vals[i]
				}
			}
			n := len(r.poss)
			o.putRet(r)
			tr.complete(n)
			return false
		})
		defer c.loc.UnregisterToken(g.token)
	}
	o.walk(c, &g)
	c.loc.Wait(&tr.w)
	bulkTrackers.Put(tr)
}

// bulkGroup is one destination's (or one local base container's) share of a
// bulk walk: the positions into the walked gids it owns, in slice order.
type bulkGroup struct {
	dest int
	bcid partition.BCID // >= 0 marks a local group; -1 a shipped one
	idxs []int          // the scratch slot's, kept from walk to walk
}

// bulkScratch is the reusable working state of one bulk walk: the per-element
// resolution table and the group list built from it, index slices included —
// a group slot keeps its slice for the next walk that gets this scratch.
// Group counts are small (a handful of base containers locally, at most P-1
// destinations remotely), so groups are found by linear search instead of map
// lookups — no hashing, no per-call map allocation.
type bulkScratch struct {
	targets []Placement
	groups  []bulkGroup
}

// addGroup opens a group for (dest, bcid) in the next slot, reusing the index
// slice an earlier walk left there.
func (s *bulkScratch) addGroup(dest int, bcid partition.BCID) {
	n := len(s.groups)
	if n < cap(s.groups) {
		s.groups = s.groups[:n+1]
	} else {
		s.groups = append(s.groups, bulkGroup{})
	}
	g := &s.groups[n]
	g.dest, g.bcid, g.idxs = dest, bcid, g.idxs[:0]
}

var bulkScratchPool = sync.Pool{New: func() any { return new(bulkScratch) }}

func getBulkScratch(n int) *bulkScratch {
	s := bulkScratchPool.Get().(*bulkScratch)
	if cap(s.targets) < n {
		s.targets = make([]Placement, n)
	}
	s.targets = s.targets[:n]
	s.groups = s.groups[:0]
	return s
}

// resolveGroups is the resolution step of a bulk walk: it resolves every
// element of gids under one metadata bracket and groups them by owner.  Each
// group lists positions into gids.  The returned scratch belongs to the
// caller, who recycles it.
func (c *Container[G, B]) resolveGroups(gids []G, hops int) *bulkScratch {
	if hops > maxForwardHops {
		panic(fmt.Sprintf("core: bulk invocation for GID %v and %d more forwarded more than %d times", gids[0], len(gids)-1, maxForwardHops))
	}
	self := c.loc.ID()
	s := getBulkScratch(len(gids))

	// Resolve every element under a single metadata bracket (one lock
	// acquisition for the whole batch instead of one per element).  Resolvers
	// that can place a batch in one call take the bulk fast path; the
	// per-element loop is the generic fallback.  The bracket is released by
	// defer so that a fail-fast resolver panic does not leak the lock to a
	// recovering caller.
	func() {
		c.ths.MetadataAccessPre(Read)
		defer c.ths.MetadataAccessPost(Read)
		if br, ok := c.resolver.(BulkResolver[G]); ok {
			br.ResolveBulk(gids, nil, s.targets)
			return
		}
		for k := range gids {
			info := c.resolver.Find(gids[k])
			if info.Valid {
				s.targets[k] = Placement{Dest: c.resolver.OwnerOf(info.BCID), BCID: info.BCID}
			} else {
				s.targets[k] = Placement{Dest: info.Hint, BCID: partition.InvalidBCID}
			}
		}
	}()

	// Group by owner: local elements by base container, remote (and
	// hint-forwarded) elements by destination location only — a remote
	// destination's elements travel as ONE request however many base
	// containers they land in there.  Slice order is preserved within every
	// group.  The group list is searched linearly with a last-group fast
	// path: resolution runs are long (consecutive GIDs usually share an
	// owner), so most elements append to the group just touched.
	last := -1
	for k, t := range s.targets {
		if t.BCID < 0 && t.Dest == self {
			panic(fmt.Sprintf("core: GID %v cannot be resolved on its directory location", gids[k]))
		}
		key := t.BCID
		if t.Dest != self {
			key = partition.InvalidBCID
		}
		if last < 0 || s.groups[last].dest != t.Dest || s.groups[last].bcid != key {
			last = -1
			for j := range s.groups {
				if s.groups[j].dest == t.Dest && s.groups[j].bcid == key {
					last = j
					break
				}
			}
			if last < 0 {
				s.addGroup(t.Dest, key)
				last = len(s.groups) - 1
			}
		}
		s.groups[last].idxs = append(s.groups[last].idxs, k)
	}
	return s
}

// walk performs one resolution step of a bulk call over g, at the origin and
// at every hop alike: a group whose base container is stored here is applied
// in place under one data bracket; every other group is shipped as one bulk
// request to its destination, where the walk repeats (method forwarding
// happens per group, not per element).  That includes a group the metadata
// calls local while its storage is gone — the transient window of a
// redistribution — which ships to this location again.
func (o *ElemOp[G, B, A, R]) walk(c *Container[G, B], g *group[G, A, R]) {
	s := c.resolveGroups(g.gids, g.hops)
	for gi := range s.groups {
		grp := &s.groups[gi]
		var bc B
		stored := false
		if grp.dest == c.loc.ID() {
			bc, stored = c.locMgr.Get(grp.bcid)
		}
		if stored {
			o.applyGroup(c, g, bc, grp)
		} else {
			o.shipGroup(c, grp.dest, g, grp.idxs)
		}
	}
	bulkScratchPool.Put(s)
}

// applyGroup applies the operation to one local group and, for a synchronous
// call, delivers the results: straight into the origin's slice while the
// group travelled by pointer, as one groupRet under the origin's token once
// it crossed by value.  Either way a shipped group's results travel back as
// one response message.
func (o *ElemOp[G, B, A, R]) applyGroup(c *Container[G, B], g *group[G, A, R], bc B, grp *bulkGroup) {
	var ret *groupRet[R]
	if g.tr == nil && g.token != 0 {
		ret = o.rets.Get().(*groupRet[R])
	}
	c.ths.DataAccessPre(grp.bcid, g.mode)
	gids, args, poss, out := g.gids, g.args, g.poss, g.out // held locally: apply is opaque to the compiler
	for _, k := range grp.idxs {
		arg, pos := g.one, k
		if len(args) > 0 {
			arg = args[k]
		}
		if len(poss) > 0 {
			pos = poss[k]
		}
		r := o.apply(c.loc, bc, gids[k], arg, pos)
		if ret != nil {
			ret.poss, ret.vals = append(ret.poss, pos), append(ret.vals, r)
		} else if out != nil {
			out[pos] = r
		}
	}
	c.ths.DataAccessPost(grp.bcid, g.mode)
	n := len(grp.idxs)
	if g.hops > 0 && (ret != nil || g.tr != nil) {
		c.loc.AccountReply(g.bytesPerOp * n)
	}
	if ret != nil {
		c.loc.ReplyOp(g.origin, c.handle, o.group, g.token, ret)
	} else if g.tr != nil {
		g.tr.complete(n)
	}
}

// shipGroup is the one place a group record leaves a location: it copies the
// elements of g selected by idxs into a pooled record and sends it to dest as
// a single sized bulk request.
func (o *ElemOp[G, B, A, R]) shipGroup(c *Container[G, B], dest int, g *group[G, A, R], idxs []int) {
	a, n := o.groups.Get().(*group[G, A, R]), len(idxs)
	a.gids, a.poss = slices.Grow(a.gids, n)[:n], slices.Grow(a.poss, n)[:n]
	if len(g.args) > 0 {
		a.args = slices.Grow(a.args, n)[:n]
	}
	for i, k := range idxs {
		a.gids[i], a.poss[i] = g.gids[k], k
		if len(g.poss) > 0 {
			a.poss[i] = g.poss[k]
		}
		if len(g.args) > 0 {
			a.args[i] = g.args[k]
		}
	}
	a.one, a.mode, a.bytesPerOp, a.hops = g.one, g.mode, g.bytesPerOp, g.hops+1
	a.origin, a.token, a.out, a.tr = g.origin, g.token, g.out, g.tr
	c.loc.AsyncRMIBulkOp(dest, c.handle, len(idxs), g.bytesPerOp*len(idxs), o.group, a)
}
