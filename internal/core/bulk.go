package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// This file implements the bulk flavour of the distribution manager's method
// skeleton: the semantic-batching counterpart of Invoke/InvokeRet.  Where
// the per-element skeleton resolves, locks and (for remote GIDs) ships one
// request per element — leaving message amortisation to the RTS aggregation
// buffer — the bulk skeleton takes a whole slice of GIDs, resolves them all
// under ONE metadata bracket, executes every local group under ONE data
// bracket per base container, and ships ONE sized RMI per destination
// carrying that destination's entire group.  The destination performs a
// single handle lookup for the whole batch and repeats the same grouping for
// any element that needs forwarding.
//
//	InvokeBulk      — asynchronous, no results (SetBulk, ApplyBulk, ...)
//	InvokeBulkSync  — blocks until every element operation has executed;
//	                  actions typically gather results into a caller-owned
//	                  slice (GetBulk, FindBulk, ...)
//
// The skeleton is on the container hot path, so its working state is pooled:
// resolution targets and group lists live in a recycled scratch, group index
// slices come from a shared pool (ownership travels with the request and the
// handler recycles them), and a shipped group rides a by-reference registered
// operation (static handler + pooled argument) — steady-state bulk traffic
// allocates nothing per call beyond what the caller's own action captures.

// bulkTracker counts the outstanding element operations of one synchronous
// bulk invocation.  Remote handlers (and forwarded stragglers) decrement it
// as they execute their groups; the issuing goroutine blocks on done.
type bulkTracker struct {
	remaining atomic.Int64
	done      chan struct{}
}

// complete retires n element operations, closing done on the last one.
func (t *bulkTracker) complete(n int) {
	if t.remaining.Add(-int64(n)) == 0 {
		close(t.done)
	}
}

// InvokeBulk runs action once for every element of gids on the base
// container owning that element, asynchronously: the call returns as soon as
// all per-destination group requests are issued.  action receives the index
// k into gids (not the GID itself), so callers can carry per-element
// arguments in parallel slices captured by the closure.  bytesPerOp is the
// simulated marshalled size of one element operation; a destination's group
// request is accounted as len(group)*bytesPerOp bytes on one message.
//
// Ordering: a bulk request flushes the per-element aggregation buffer of its
// destination before delivery, so bulk and per-element methods on the same
// (source, destination) pair execute in invocation order.  Elements within
// one call execute in slice order per destination; elements owned by
// different destinations race, exactly like independent per-element invokes.
func (c *Container[G, B]) InvokeBulk(gids []G, mode AccessMode, bytesPerOp int, action func(loc *runtime.Location, bc B, k int)) {
	if len(gids) == 0 {
		return
	}
	if c.Sequential() {
		// Under the sequential model asynchronous methods execute
		// synchronously (Claim 3 of Chapter VII).
		c.InvokeBulkSync(gids, mode, bytesPerOp, action)
		return
	}
	c.bulkHop(gids, nil, mode, bytesPerOp, action, nil, 0)
}

// InvokeBulkSync runs action once for every element of gids and blocks until
// all of them — local, remote and forwarded — have executed.  It is the bulk
// counterpart of InvokeRet: gathering methods capture a results slice and
// have action write out[k], which is safe because every k is written exactly
// once and the completion signal orders those writes before the return.
func (c *Container[G, B]) InvokeBulkSync(gids []G, mode AccessMode, bytesPerOp int, action func(loc *runtime.Location, bc B, k int)) {
	if len(gids) == 0 {
		return
	}
	tr := &bulkTracker{done: make(chan struct{})}
	tr.remaining.Store(int64(len(gids)))
	c.bulkHop(gids, nil, mode, bytesPerOp, action, tr, 0)
	c.loc.WaitDone(tr.done)
}

// bulkGroup is one destination's (or one local base container's) share of a
// bulk invocation: the positions into gids it owns, in slice order.
type bulkGroup struct {
	dest int
	bcid partition.BCID // >= 0 marks a local group; -1 a shipped one
	idxs []int          // pooled; ownership transfers to whoever executes the group
}

// bulkScratch is the reusable working state of one bulk hop: the per-element
// resolution table and the group list built from it.  Group counts are small
// (a handful of base containers locally, at most P-1 destinations remotely),
// so groups are found by linear search instead of map lookups — no hashing,
// no per-call map allocation.
type bulkScratch struct {
	targets []Placement
	groups  []bulkGroup
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

func putBulkScratch(s *bulkScratch) {
	for i := range s.groups {
		s.groups[i].idxs = nil // shipped or recycled by the executor
	}
	bulkScratchPool.Put(s)
}

// bulkIdxPool recycles the group index slices.  A slice's ownership follows
// the group: locally executed groups recycle it in bulkHop, shipped groups
// hand it to the destination's forward handler (bulkForwardOpFor), which
// recycles it after the hop.
var bulkIdxPool = sync.Pool{New: func() any { return make([]int, 0, 64) }}

func getBulkIdxs() []int { return bulkIdxPool.Get().([]int)[:0] }

func putBulkIdxs(idxs []int) {
	//lint:ignore SA6002 the slice header is what we pool; its backing array
	// is reused, so the boxed header allocation is amortised.
	bulkIdxPool.Put(idxs[:0])
}

// bulkArgs carries one shipped group: everything the forward handler needs to
// resume the hop at the destination.  Instances are recycled through an untyped
// pool shared by every container instantiation; a descriptor that comes back
// under the wrong type parameters is simply dropped (see getBulkArgs).
type bulkArgs[G any, B BContainer] struct {
	gids       []G
	idxs       []int
	mode       AccessMode
	bytesPerOp int
	action     func(loc *runtime.Location, bc B, k int)
	tr         *bulkTracker
	hops       int
}

var bulkArgsPool sync.Pool

func getBulkArgs[G any, B BContainer]() *bulkArgs[G, B] {
	if v := bulkArgsPool.Get(); v != nil {
		if a, ok := v.(*bulkArgs[G, B]); ok {
			return a
		}
		// A descriptor of another container family's instantiation: drop it
		// (the GC reclaims it) rather than juggle per-type pools.
	}
	return new(bulkArgs[G, B])
}

func putBulkArgs[G any, B BContainer](a *bulkArgs[G, B]) {
	*a = bulkArgs[G, B]{}
	bulkArgsPool.Put(a)
}

// bulkForwardOp is the operation every shipped group of a Container[G, B]
// travels under.  The group carries the caller's action, so its record has no
// wire codec and the operation is by-reference whatever G is: its handler
// resumes the hop on the destination's representative, then recycles the
// group's index slice and the argument record.
type bulkForwardOp[G any, B BContainer] struct{ id runtime.OpID }

func bulkForwardOpFor[G any, B BContainer]() runtime.OpID {
	return OncePerType(func() bulkForwardOp[G, B] {
		codec := transport.CodecOf[*bulkArgs[G, B]]()
		return bulkForwardOp[G, B]{runtime.RegisterOp("core.bulk-forward["+codec.Name+"]", codec,
			func(obj any, _ *runtime.Location, a *bulkArgs[G, B]) {
				obj.(*Container[G, B]).bulkHop(a.gids, a.idxs, a.mode, a.bytesPerOp, a.action, a.tr, a.hops)
				putBulkIdxs(a.idxs)
				putBulkArgs(a)
			}, nil)}
	}).id
}

// shipGroup sends one group to dest as a single sized bulk request.  The
// group's index slice ownership transfers to the destination.
func (c *Container[G, B]) shipGroup(dest int, gids []G, group []int, mode AccessMode, bytesPerOp int, action func(loc *runtime.Location, bc B, k int), tr *bulkTracker, hops int) {
	a := getBulkArgs[G, B]()
	*a = bulkArgs[G, B]{gids: gids, idxs: group, mode: mode, bytesPerOp: bytesPerOp, action: action, tr: tr, hops: hops}
	c.loc.AsyncRMIBulkOp(dest, c.handle, len(group), bytesPerOp*len(group), c.bulkForward, a)
}

// resolveGroups is the resolution core every bulk hop shares: it resolves the
// elements of gids selected by idxs (nil means all) under one metadata
// bracket and groups them by owner.  Each group lists positions into gids.
// The returned scratch (and the group index slices it holds) belongs to the
// caller, who hands every group's slice on or recycles it and then returns
// the scratch with putBulkScratch.
func (c *Container[G, B]) resolveGroups(gids []G, idxs []int, hops int) *bulkScratch {
	if hops > maxForwardHops {
		panic(fmt.Sprintf("core: bulk invocation forwarded more than %d times", maxForwardHops))
	}
	self := c.loc.ID()
	n := len(gids)
	if idxs != nil {
		n = len(idxs)
	}
	s := getBulkScratch(n)

	// Resolve every selected element under a single metadata bracket (one
	// lock acquisition for the whole batch instead of one per element).
	// Resolvers that can place a batch in one call take the bulk fast path;
	// the per-element loop is the generic fallback.  The bracket is released
	// by defer so that a fail-fast resolver panic does not leak the lock to
	// a recovering caller.
	func() {
		c.ths.MetadataAccessPre(Read)
		defer c.ths.MetadataAccessPost(Read)
		if br, ok := c.resolver.(BulkResolver[G]); ok {
			br.ResolveBulk(gids, idxs, s.targets[:n])
			return
		}
		for i := 0; i < n; i++ {
			k := i
			if idxs != nil {
				k = idxs[i]
			}
			info := c.resolver.Find(gids[k])
			if info.Valid {
				s.targets[i] = Placement{Dest: c.resolver.OwnerOf(info.BCID), BCID: info.BCID}
			} else {
				s.targets[i] = Placement{Dest: info.Hint, BCID: partition.InvalidBCID}
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
	for i := 0; i < n; i++ {
		k := i
		if idxs != nil {
			k = idxs[i]
		}
		t := s.targets[i]
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
				s.groups = append(s.groups, bulkGroup{dest: t.Dest, bcid: key, idxs: getBulkIdxs()})
				last = len(s.groups) - 1
			}
		}
		s.groups[last].idxs = append(s.groups[last].idxs, k)
	}
	return s
}

// bulkHop performs one resolution step of a bulk invocation for the elements
// of gids selected by idxs (nil means all).  Local groups execute in place;
// remote groups are shipped as one bulk RMI per destination, where the same
// grouping repeats (method forwarding happens per group, not per element).
func (c *Container[G, B]) bulkHop(gids []G, idxs []int, mode AccessMode, bytesPerOp int, action func(loc *runtime.Location, bc B, k int), tr *bulkTracker, hops int) {
	self := c.loc.ID()
	s := c.resolveGroups(gids, idxs, hops)
	defer putBulkScratch(s)

	// Execute local groups in place (one data bracket per base container for
	// the whole group); ship every other group as one sized request.  A
	// shipped group's index slice belongs to the destination afterwards.
	for gi := range s.groups {
		g := &s.groups[gi]
		if g.dest == self && g.bcid >= 0 {
			bc, ok := c.locMgr.Get(g.bcid)
			if !ok {
				// Metadata says local but the storage moved (transient
				// redistribution window): retry the group as a forward.
				c.shipGroup(self, gids, g.idxs, mode, bytesPerOp, action, tr, hops+1)
				g.idxs = nil
				continue
			}
			c.ths.DataAccessPre(g.bcid, mode)
			for _, k := range g.idxs {
				action(c.loc, bc, k)
			}
			c.ths.DataAccessPost(g.bcid, mode)
			if tr != nil {
				if hops > 0 {
					// This group was shipped here: its gathered results
					// travel back as one response message.
					c.loc.AccountReply(bytesPerOp * len(g.idxs))
				}
				tr.complete(len(g.idxs))
			}
			putBulkIdxs(g.idxs)
			g.idxs = nil
			continue
		}
		c.shipGroup(g.dest, gids, g.idxs, mode, bytesPerOp, action, tr, hops+1)
		g.idxs = nil
	}
}
