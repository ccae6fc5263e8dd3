package plist

import (
	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/runtime"
)

// Bulk element operations: the pList counterpart of the other families'
// SetBulk/GetBulk/ApplyBulk, the bulk flavours of the same element operations
// — the whole batch resolves under one metadata bracket, local groups execute
// under one data bracket, and each remote destination receives one sized RMI
// for its entire group.  Both address-translation modes are supported; in the directory
// mode, forwarded groups re-resolve per destination exactly like the
// per-element path.

// SetBulk stores vals[k] at gids[k] for every k, asynchronously.  Groups
// shipped to other locations copy their share, so neither slice is retained
// past the call.
func (l *List[T]) SetBulk(gids []GID, vals []T) {
	if len(gids) != len(vals) {
		panic("plist: SetBulk gid/value length mismatch")
	}
	if len(gids) == 0 {
		return
	}
	bytesPerOp := 12 + runtime.PayloadBytes(vals[0]) // GID + value
	l.ops.set.BulkAsync(&l.Container, gids, vals, bytesPerOp)
}

// GetBulk returns the elements named by gids, in order (synchronous).  It
// blocks until every element — local, remote and forwarded — has been read.
func (l *List[T]) GetBulk(gids []GID) []T {
	out := make([]T, len(gids))
	l.ops.get.BulkSync(&l.Container, gids, nil, out, 12)
	return out
}

// ApplyBulk applies fn to every element named by gids in place,
// asynchronously (the bulk counterpart of Apply).  The request carries the
// caller's fn, not copies: gids and whatever fn captures are retained until
// the operations execute; do not mutate them before the next Fence.
func (l *List[T]) ApplyBulk(gids []GID, fn func(T) T) {
	l.InvokeBulk(gids, core.Write, 12, func(_ *runtime.Location, bc *bcontainer.List[T], k int) {
		bc.Apply(gids[k].ID, fn)
	})
}
