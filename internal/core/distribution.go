package core

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/runtime"
)

// This file implements the data-distribution manager's generic method
// skeleton (Table X, Figures 8 and 17 of the paper).  Every element-wise
// container method is expressed as one of three invoke flavours:
//
//	Invoke       — asynchronous, no result (set_element, insert_async, ...)
//	InvokeRet    — synchronous, blocks for the result (get_element, ...)
//	InvokeSplit  — split-phase, returns a Future   (split_phase_get_element)
//
// Each flavour starts from the same local primitive, enter: resolve the GID
// once and, if the owning base container is local, run the action in place
// inside its data bracket — a local element method costs that and nothing
// else.  Otherwise the invocation continues from that resolution: it is
// shipped to the owning location (or, when the partition only knows a hint,
// forwarded to the location that may know more — the paper's method
// forwarding), where enter repeats.

// maxForwardHops bounds forwarding chains so that a mis-configured partition
// produces a clear failure instead of an infinite ping-pong of requests.
const maxForwardHops = 64

// Invoke runs action on the base container owning gid, asynchronously: the
// call returns as soon as the request is issued.  mode describes whether the
// action reads or writes the base container, so the thread-safety manager
// can pick a shared or exclusive lock.
func (c *Container[G, B]) Invoke(gid G, mode AccessMode, action func(loc *runtime.Location, bc B)) {
	c.InvokeSized(gid, mode, 0, action)
}

// InvokeSized is Invoke with an explicit simulated payload size for the
// action's arguments, so element methods that carry a value (set_element,
// insert_async, ...) feed the machine's byte statistics.  Remote requests
// additionally account the fixed per-request descriptor overhead inside the
// RTS; purely local invocations move no simulated bytes.
func (c *Container[G, B]) InvokeSized(gid G, mode AccessMode, bytes int, action func(loc *runtime.Location, bc B)) {
	if c.Sequential() {
		// Under the sequential model asynchronous methods execute
		// synchronously (Claim 3 of Chapter VII).
		c.InvokeRet(gid, mode, func(loc *runtime.Location, bc B) any {
			action(loc, bc)
			return nil
		})
		return
	}
	c.invokeHop(gid, mode, bytes, action, 0)
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

// invokeHop performs one resolution step of an asynchronous invocation.
func (c *Container[G, B]) invokeHop(gid G, mode AccessMode, bytes int, action func(loc *runtime.Location, bc B), hops int) {
	bc, bcid, dest, local := c.enter(gid, mode, hops)
	if local {
		action(c.loc, bc)
		c.ths.DataAccessPost(bcid, mode)
		return
	}
	c.forward(dest, gid, mode, bytes, action, hops+1)
}

// forward continues an asynchronous invocation at dest, where it arrives as
// hop number hops.
func (c *Container[G, B]) forward(dest int, gid G, mode AccessMode, bytes int, action func(loc *runtime.Location, bc B), hops int) {
	c.loc.AsyncRMISized(dest, c.handle, bytes, func(obj any, _ *runtime.Location) {
		obj.(*Container[G, B]).invokeHop(gid, mode, bytes, action, hops)
	})
}

// InvokeRet runs action on the base container owning gid and blocks until
// its result is available (a synchronous method).  A local element is read in
// place; only a remote one costs a future and a round trip.
func (c *Container[G, B]) InvokeRet(gid G, mode AccessMode, action func(loc *runtime.Location, bc B) any) any {
	bc, bcid, dest, local := c.enter(gid, mode, 0)
	if local {
		v := action(c.loc, bc)
		c.ths.DataAccessPost(bcid, mode)
		return v
	}
	return c.roundTrip(dest, gid, mode, action)
}

// roundTrip continues a synchronous invocation at dest, the location enter
// resolved, and blocks for its result.
func (c *Container[G, B]) roundTrip(dest int, gid G, mode AccessMode, action func(loc *runtime.Location, bc B) any) any {
	fut := c.loc.NewAbortableFuture()
	c.forwardReply(dest, gid, mode, action, fut, 1)
	return fut.Get()
}

// InvokeSplit starts a split-phase invocation of action on the base
// container owning gid and returns a future for its result.  The caller may
// overlap other work and call Get later; forwarding hops are delivered
// urgently so a blocked Get always makes progress, and the future is wired to
// the machine's abort so a Get whose answer died with a faulting handler
// unwinds instead of blocking.
func (c *Container[G, B]) InvokeSplit(gid G, mode AccessMode, action func(loc *runtime.Location, bc B) any) *runtime.Future {
	fut := c.loc.NewAbortableFuture()
	c.invokeReplyHop(gid, mode, action, fut, 0)
	return fut
}

// invokeReplyHop performs one resolution step of a value-returning
// invocation, completing fut when the action finally runs.
func (c *Container[G, B]) invokeReplyHop(gid G, mode AccessMode, action func(loc *runtime.Location, bc B) any, fut *runtime.Future, hops int) {
	bc, bcid, dest, local := c.enter(gid, mode, hops)
	if local {
		v := action(c.loc, bc)
		c.ths.DataAccessPost(bcid, mode)
		fut.Complete(v)
		if hops > 0 {
			// The result travelled back to the issuing location: one
			// response message carrying the marshalled value.
			c.loc.AccountReply(runtime.PayloadBytes(v))
		}
		return
	}
	c.forwardReply(dest, gid, mode, action, fut, hops+1)
}

// forwardReply continues a value-returning invocation at dest, where it
// arrives as hop number hops.
func (c *Container[G, B]) forwardReply(dest int, gid G, mode AccessMode, action func(loc *runtime.Location, bc B) any, fut *runtime.Future, hops int) {
	c.loc.AsyncRMIUrgent(dest, c.handle, func(obj any, _ *runtime.Location) {
		obj.(*Container[G, B]).invokeReplyHop(gid, mode, action, fut, hops)
	})
}

// GetElem and SetElem are the typed element methods of the families whose
// remote requests travel as closures (pVector, pMatrix, pList, ...).  get and
// set are function values the container built once, so a local element costs
// enter, the call and the bracket's release: no closure, no future, no boxed
// value.  Only the remote branch builds a closure, and ships it to the
// location enter resolved; its requests are InvokeRet's and InvokeSized's.

// GetElem returns get(bc, gid) under the read bracket.  Synchronous.
func GetElem[G any, B BContainer, V any](c *Container[G, B], gid G, get func(bc B, gid G) V) V {
	bc, bcid, dest, local := c.enter(gid, Read, 0)
	if local {
		v := get(bc, gid)
		c.ths.DataAccessPost(bcid, Read)
		return v
	}
	return c.roundTrip(dest, gid, Read, func(_ *runtime.Location, bc B) any { return get(bc, gid) }).(V)
}

// SetElem runs set(bc, gid, val) under the write bracket, asynchronously
// (synchronously under the Sequential model).  bytes is val's simulated size.
func SetElem[G any, B BContainer, V any](c *Container[G, B], gid G, val V, bytes int, set func(bc B, gid G, val V)) {
	bc, bcid, dest, local := c.enter(gid, Write, 0)
	if local {
		set(bc, gid, val)
		c.ths.DataAccessPost(bcid, Write)
		return
	}
	if c.Sequential() {
		c.roundTrip(dest, gid, Write, func(_ *runtime.Location, bc B) any {
			set(bc, gid, val)
			return nil
		})
		return
	}
	c.forward(dest, gid, Write, bytes, func(_ *runtime.Location, bc B) { set(bc, gid, val) }, 1)
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
