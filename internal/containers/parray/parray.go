// Package parray implements the STAPL pArray (Chapter IX): the parallel
// counterpart of a fixed-size array, distributed across locations and
// globally addressable by index.
//
// A pArray is a static, indexed pContainer: its size is fixed at
// construction, which lets address translation use closed-form partitions
// (balanced, blocked, block-cyclic, explicit).  Element access is provided
// in the three flavours the paper evaluates: asynchronous Set/ApplySet,
// synchronous Get/ApplyGet and split-phase GetSplit.
package parray

import (
	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/partition"
	"repro/internal/runtime"
)

// Array is the per-location representative of a pArray of element type T.
// All representatives together form one shared object: any location may
// read or write any index.
type Array[T any] struct {
	core.Container[int64, *bcontainer.Array[T]]

	dom    domain.Range1D
	part   partition.Indexed
	mapper partition.Mapper

	// ops are the registered element operations for T.
	ops *elemOps[T]
}

// options collects constructor customisations.
type options struct {
	part   partition.Indexed
	mapper partition.Mapper
	traits core.Traits
	hasTr  bool
}

// Option customises pArray construction.
type Option func(*options)

// WithPartition selects the index partition (default: balanced, one
// sub-domain per location).
func WithPartition(p partition.Indexed) Option { return func(o *options) { o.part = p } }

// WithMapper selects the sub-domain → location mapper (default: blocked).
func WithMapper(m partition.Mapper) Option { return func(o *options) { o.mapper = m } }

// WithTraits overrides the default traits (per-bContainer locking, relaxed
// consistency).
func WithTraits(t core.Traits) Option { return func(o *options) { o.traits = t; o.hasTr = true } }

// New constructs a pArray of n elements.  It is a collective operation:
// every location must call it in the same construction order, passing its
// own Location.
func New[T any](loc *runtime.Location, n int64, opts ...Option) *Array[T] {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	dom := domain.NewRange1D(0, n)
	if o.part == nil {
		o.part = partition.NewBalanced(dom, loc.NumLocations())
	}
	if o.mapper == nil {
		o.mapper = partition.NewBlockedMapper(o.part.NumSubdomains(), loc.NumLocations())
	}
	if !o.hasTr {
		o.traits = core.DefaultTraits()
	}
	a := &Array[T]{dom: dom, part: o.part, mapper: o.mapper, ops: elemOpsFor[T]()}
	a.InitContainer(loc, core.IndexedResolver{Partition: o.part, Mapper: o.mapper}, o.traits)
	a.allocateLocal()
	// Constructors are collective: no location may issue element methods
	// before every representative is registered and its storage allocated.
	loc.Barrier()
	return a
}

// allocateLocal creates the base containers for the sub-domains mapped to
// this location.
func (a *Array[T]) allocateLocal() {
	for _, b := range a.mapper.LocalBCIDs(a.Location().ID()) {
		a.LocationManager().Add(bcontainer.NewArray[T](b, a.part.SubDomain(b)))
	}
}

// Size returns the number of elements.  The pArray is static, so no
// communication is needed.
func (a *Array[T]) Size() int64 { return a.dom.Size() }

// Domain returns the index domain [0, Size()).
func (a *Array[T]) Domain() domain.Range1D { return a.dom }

// Partition returns the index partition in use.
func (a *Array[T]) Partition() partition.Indexed { return a.part }

// Mapper returns the sub-domain mapper in use.
func (a *Array[T]) Mapper() partition.Mapper { return a.mapper }

// Set stores val at index i.  It is asynchronous: completion is guaranteed
// by the next Fence, or by a later Get/GetSplit of the same index from this
// location (the container's relaxed memory-consistency model).
func (a *Array[T]) Set(i int64, val T) {
	a.ops.set.Async(&a.Container, i, val, runtime.PayloadBytes(val))
}

// Get returns the element at index i (synchronous).
func (a *Array[T]) Get(i int64) T {
	return a.ops.get.Sync(&a.Container, i, struct{}{})
}

// GetSplit starts a split-phase read of index i and returns a future for
// its value (the paper's split_phase_get_element / pc_future).
func (a *Array[T]) GetSplit(i int64) *runtime.FutureOf[T] {
	return runtime.NewFutureOf[T](a.ops.get.Split(&a.Container, i, struct{}{}))
}

// ApplySet applies fn to the element at index i in place, asynchronously
// (the paper's apply_set).
func (a *Array[T]) ApplySet(i int64, fn func(T) T) {
	a.Invoke(i, core.Write, func(_ *runtime.Location, bc *bcontainer.Array[T]) { bc.Apply(i, fn) })
}

// ApplyGet applies fn to the element at index i and returns fn's result,
// synchronously (the paper's apply_get).
func (a *Array[T]) ApplyGet(i int64, fn func(T) any) any {
	return a.InvokeRet(i, core.Read, func(_ *runtime.Location, bc *bcontainer.Array[T]) any {
		return bc.ApplyGet(i, fn)
	})
}

// SetBulk stores vals[k] at index idxs[k] for every k, asynchronously (like
// Set, completion is guaranteed by the next Fence).  The whole batch is
// resolved once, grouped by owning location and shipped as one sized RMI per
// destination, so a remote-heavy batch costs O(destinations) messages
// instead of O(len(idxs)) request descriptors.
//
// Like Set, SetBulk captures its values: groups shipped to other locations
// copy their share, so neither slice is retained past the call.
func (a *Array[T]) SetBulk(idxs []int64, vals []T) {
	if len(idxs) != len(vals) {
		panic("parray: SetBulk index/value length mismatch")
	}
	if len(idxs) == 0 {
		return
	}
	bytesPerOp := 8 + runtime.PayloadBytes(vals[0]) // index + value
	a.ops.set.BulkAsync(&a.Container, idxs, vals, bytesPerOp)
}

// GetBulk returns the elements at the given indices, in order (synchronous).
// One request and one response message per owning location, regardless of
// batch size.
func (a *Array[T]) GetBulk(idxs []int64) []T {
	out := make([]T, len(idxs))
	a.ops.get.BulkSync(&a.Container, idxs, nil, out, 8)
	return out
}

// ApplyBulk applies fn to every element named by idxs in place,
// asynchronously (the bulk counterpart of ApplySet).  The request carries the
// caller's fn, not copies: idxs and whatever fn captures are retained until
// the operations execute; do not mutate them before the next Fence.
func (a *Array[T]) ApplyBulk(idxs []int64, fn func(T) T) {
	a.InvokeBulk(idxs, core.Write, 8, func(_ *runtime.Location, bc *bcontainer.Array[T], k int) {
		bc.Apply(idxs[k], fn)
	})
}

// LocalSubdomains returns the index ranges stored on this location, in BCID
// order.  Algorithms use it to build native views that access local data
// without communication.
func (a *Array[T]) LocalSubdomains() []domain.Range1D {
	ids := a.LocationManager().BCIDs()
	out := make([]domain.Range1D, len(ids))
	for i, id := range ids {
		out[i] = a.part.SubDomain(id)
	}
	return out
}

// LocalSegment returns the raw storage backing the global index range
// [r.Lo, r.Hi) when one local base container holds it entirely, and
// ok=false otherwise.  Native views hand the segment to pAlgorithms so a
// coarsened local chunk is walked at raw-slice speed; callers must only
// request ranges inside their own work decomposition and separate phases
// touching the same elements with fences (the bracket-free discipline of
// the paper's native views).
func (a *Array[T]) LocalSegment(r domain.Range1D) ([]T, bool) {
	if r.Empty() {
		return nil, false
	}
	for _, id := range a.LocationManager().BCIDs() {
		d := a.part.SubDomain(id)
		if r.Lo >= d.Lo && r.Hi <= d.Hi {
			bc, ok := a.LocationManager().Get(id)
			if !ok {
				return nil, false
			}
			s := bc.Slice()
			return s[r.Lo-d.Lo : r.Hi-d.Lo], true
		}
	}
	return nil, false
}

// RangeLocal applies fn to every locally stored (index, value) pair in index
// order within each base container, under the read bracket of the
// thread-safety manager.
func (a *Array[T]) RangeLocal(fn func(gid int64, val T) bool) {
	a.ForEachLocalBC(core.Read, func(bc *bcontainer.Array[T]) {
		bc.Range(fn)
	})
}

// UpdateLocal replaces every locally stored element with the value fn
// returns for it, under the write bracket of the thread-safety manager.
func (a *Array[T]) UpdateLocal(fn func(gid int64, val T) T) {
	a.ForEachLocalBC(core.Write, func(bc *bcontainer.Array[T]) {
		bc.Update(fn)
	})
}

// MemorySize returns the container-wide data/metadata footprint.  It is a
// collective operation (Tables XXII/XXIII).
func (a *Array[T]) MemorySize() core.MemoryUsage {
	meta := partition.MemoryBytes(a.mapper) + 48 // partition descriptor
	return a.GlobalMemory(meta)
}
