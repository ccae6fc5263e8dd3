package core

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// This file implements the data-distribution manager's generic method
// skeleton (Table X, Figures 8 and 17 of the paper): resolve the GID, run the
// method on the base container if it is local, otherwise ship it to the
// owning location (or, when the partition only knows a hint, to the location
// that may know more — the paper's method forwarding) and repeat there.  The
// skeleton itself is the element operation of ops.go and bulk.go; this file
// holds its shared resolution step and the closure API: the instance of the
// element operation whose argument is the caller's func, for methods that
// apply user code to an element (Apply, ApplyGet, Visit-style updates).  A
// func has no codec, so these requests cross locations by reference — in
// process by pointer, over a single-process wire through the rendezvous — and
// cannot cross a process boundary.
//
//	Invoke          — asynchronous, no result (apply_set, erase_async, ...)
//	InvokeRet       — synchronous, blocks for the result (apply_get, ...)
//	InvokeSplit     — split-phase, returns a Future
//	InvokeBulk      — asynchronous, one call per element of a slice
//	InvokeBulkSync  — the same, blocking until every element ran

// maxForwardHops bounds forwarding chains so that a mis-configured partition
// produces a clear failure instead of an infinite ping-pong of requests.
const maxForwardHops = 64

// closureOps are the three closure instances of a Container[G, B]: a func
// without a result, a func with one, and a func per element of a bulk call
// (shipped under the name bulk groups always travelled by).
type closureOps[G any, B BContainer] struct {
	void *ElemOp[G, B, func(*runtime.Location, B), struct{}]
	ret  *ElemOp[G, B, func(*runtime.Location, B) any, any]
	bulk *ElemOp[G, B, func(*runtime.Location, B, int), struct{}]
}

func closureOpsFor[G any, B BContainer]() *closureOps[G, B] {
	return OncePerType(func() *closureOps[G, B] {
		// Named after the instantiation; by-reference names never leave the
		// process, so the type descriptor's address keeps look-alikes apart.
		inst := "[" + transport.CodecOf[*Container[G, B]]().Name + "]"
		gid := transport.Codec[G]{}
		// The access mode is the caller's, per call; the registered one is
		// never used.
		return &closureOps[G, B]{
			void: newElemOp("core.invoke"+inst, "", Write, gid, transport.Codec[func(*runtime.Location, B)]{}, unitCodec,
				func(loc *runtime.Location, bc B, _ G, fn func(*runtime.Location, B), _ int) struct{} {
					fn(loc, bc)
					return struct{}{}
				}),
			ret: newElemOp("core.invoke-ret"+inst, "", Write, gid, transport.Codec[func(*runtime.Location, B) any]{}, transport.Codec[any]{},
				func(loc *runtime.Location, bc B, _ G, fn func(*runtime.Location, B) any, _ int) any {
					return fn(loc, bc)
				}),
			bulk: newElemOp("", "core.bulk-forward"+inst, Write, gid, transport.Codec[func(*runtime.Location, B, int)]{}, unitCodec,
				func(loc *runtime.Location, bc B, _ G, fn func(*runtime.Location, B, int), k int) struct{} {
					fn(loc, bc, k)
					return struct{}{}
				}),
		}
	})
}

// Invoke runs action on the base container owning gid, asynchronously: the
// call returns as soon as the request is issued.  mode describes whether the
// action reads or writes the base container, so the thread-safety manager
// can pick a shared or exclusive lock.
func (c *Container[G, B]) Invoke(gid G, mode AccessMode, action func(loc *runtime.Location, bc B)) {
	c.closures.void.async(c, gid, mode, action, 0)
}

// InvokeSized is Invoke with an explicit simulated payload size for the
// action's arguments, so methods that carry a value feed the machine's byte
// statistics.  Purely local invocations move no simulated bytes.
func (c *Container[G, B]) InvokeSized(gid G, mode AccessMode, bytes int, action func(loc *runtime.Location, bc B)) {
	c.closures.void.async(c, gid, mode, action, bytes)
}

// InvokeRet runs action on the base container owning gid and blocks until
// its result is available (a synchronous method).  A local element is read in
// place; only a remote one costs a future and a round trip.
func (c *Container[G, B]) InvokeRet(gid G, mode AccessMode, action func(loc *runtime.Location, bc B) any) any {
	return c.closures.ret.sync(c, gid, mode, action)
}

// InvokeSplit starts a split-phase invocation of action on the base
// container owning gid and returns a future for its result.
func (c *Container[G, B]) InvokeSplit(gid G, mode AccessMode, action func(loc *runtime.Location, bc B) any) *runtime.Future {
	return c.closures.ret.split(c, gid, mode, action)
}

// InvokeBulk runs action once for every element of gids on the base
// container owning that element, asynchronously (see ElemOp.BulkAsync).
// action receives the index k into gids (not the GID itself), so callers can
// carry per-element arguments in parallel slices captured by the closure —
// which the framework therefore cannot copy: whatever action captures must
// stay untouched until the next Fence.  bytesPerOp is the simulated
// marshalled size of one element operation.
func (c *Container[G, B]) InvokeBulk(gids []G, mode AccessMode, bytesPerOp int, action func(loc *runtime.Location, bc B, k int)) {
	c.closures.bulk.bulk(c, gids, nil, action, nil, mode, bytesPerOp, false)
}

// InvokeBulkSync is InvokeBulk that blocks until all elements — local, remote
// and forwarded — have executed.  Gathering methods capture a results slice
// and have action write out[k], which is safe because every k is written
// exactly once and the completion signal orders those writes before the
// return.
func (c *Container[G, B]) InvokeBulkSync(gids []G, mode AccessMode, bytesPerOp int, action func(loc *runtime.Location, bc B, k int)) {
	c.closures.bulk.bulk(c, gids, nil, action, nil, mode, bytesPerOp, true)
}

// enter is the local primitive every single-element method starts from: it
// resolves gid once and, when the owning base container is stored on this
// location, returns it INSIDE its data bracket (local == true) — the caller
// applies its action and leaves with c.ths.DataAccessPost(bcid, mode).
// Otherwise dest is the location to continue at: the owner, or the location a
// forwarding hint says may know more.  A GID whose metadata says local but
// whose storage is gone (the transient window of a redistribution) continues
// at this location again.
func (c *Container[G, B]) enter(gid G, mode AccessMode, hops int) (bc B, bcid partition.BCID, dest int, local bool) {
	bc, bcid, dest, local = c.locate(gid, hops)
	if local {
		c.ths.DataAccessPre(bcid, mode)
	}
	return bc, bcid, dest, local
}

// locate is enter's resolution step.  The metadata read bracket is released
// by defer, so a resolver that fails fast — pList's invalid-GID panic — does
// not leak the lock to a recovering caller.  It panics when the chain exceeds
// maxForwardHops or when gid cannot be resolved on the very location its hint
// names.
func (c *Container[G, B]) locate(gid G, hops int) (bc B, bcid partition.BCID, dest int, local bool) {
	if hops > maxForwardHops {
		panic(fmt.Sprintf("core: invocation for GID %v forwarded more than %d times", gid, maxForwardHops))
	}
	c.ths.MetadataAccessPre(Read)
	defer c.ths.MetadataAccessPost(Read)
	info := c.resolver.Find(gid)
	if !info.Valid {
		if info.Hint == c.loc.ID() {
			panic(fmt.Sprintf("core: GID %v cannot be resolved on its directory location", gid))
		}
		return bc, partition.InvalidBCID, info.Hint, false
	}
	dest = c.resolver.OwnerOf(info.BCID)
	if dest == c.loc.ID() {
		bc, local = c.locMgr.Get(info.BCID)
	}
	return bc, info.BCID, dest, local
}

// InvokeAt runs action on a specific location's representative regardless of
// any GID (used by directory updates, redistribution and container-wide
// maintenance operations).  It is asynchronous.
func (c *Container[G, B]) InvokeAt(dest int, action func(loc *runtime.Location, self *Container[G, B])) {
	c.loc.AsyncRMI(dest, c.handle, func(obj any, loc *runtime.Location) {
		action(loc, obj.(*Container[G, B]))
	})
}

// InvokeAtRet runs action on a specific location's representative and blocks
// for its result.
func (c *Container[G, B]) InvokeAtRet(dest int, action func(loc *runtime.Location, self *Container[G, B]) any) any {
	return c.loc.SyncRMI(dest, c.handle, func(obj any, loc *runtime.Location) any {
		return action(loc, obj.(*Container[G, B]))
	})
}

// InvokeOnBC runs action asynchronously on the location owning the given
// sub-domain, passing it that sub-domain's base container.
func (c *Container[G, B]) InvokeOnBC(b partition.BCID, mode AccessMode, action func(loc *runtime.Location, bc B)) {
	dest := c.resolver.OwnerOf(b)
	if dest == c.loc.ID() {
		if bc, ok := c.locMgr.Get(b); ok {
			c.ths.DataAccessPre(b, mode)
			action(c.loc, bc)
			c.ths.DataAccessPost(b, mode)
			return
		}
		panic(fmt.Sprintf("core: sub-domain %d mapped to this location but has no bContainer", b))
	}
	c.loc.AsyncRMI(dest, c.handle, func(obj any, _ *runtime.Location) {
		obj.(*Container[G, B]).InvokeOnBC(b, mode, action)
	})
}
