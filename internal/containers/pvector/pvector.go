// Package pvector implements the STAPL pVector: a sequence pContainer that
// also satisfies the indexed interface.  Like its sequential counterpart it
// offers O(1) access by index and amortised O(1) push_back, but pays linear
// time (element shifting plus distributed metadata updates) for insertions
// and deletions in the middle — the trade-off against pList that the paper's
// Fig. 42 experiment quantifies.
package pvector

import (
	"sort"
	"sync"

	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// blockTable is the pVector's distribution metadata: the current size of
// every block (bContainer).  Indices are positional, so the table also
// yields the prefix sums needed to locate the block owning a global index.
// Each location keeps a replica; structural updates are broadcast
// asynchronously and synchronised at fences, following the container's
// relaxed consistency model.
type blockTable struct {
	mu     sync.RWMutex
	sizes  []int64
	prefix []int64 // prefix[i] = first global index of block i
}

func newBlockTable(sizes []int64) *blockTable {
	t := &blockTable{}
	t.reset(sizes)
	return t
}

func (t *blockTable) reset(sizes []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sizes = append([]int64(nil), sizes...)
	t.rebuildLocked()
}

func (t *blockTable) rebuildLocked() {
	t.prefix = make([]int64, len(t.sizes))
	var acc int64
	for i, s := range t.sizes {
		t.prefix[i] = acc
		acc += s
	}
}

func (t *blockTable) adjust(block int, delta int64) {
	t.mu.Lock()
	t.sizes[block] += delta
	t.rebuildLocked()
	t.mu.Unlock()
}

func (t *blockTable) total() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.sizes) == 0 {
		return 0
	}
	return t.prefix[len(t.prefix)-1] + t.sizes[len(t.sizes)-1]
}

// locate returns the block containing global index i and the index of the
// block's first element.
func (t *blockTable) locate(i int64) (block int, base int64, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i < 0 || i >= t.prefixTotalLocked() {
		return 0, 0, false
	}
	// Last block whose first index is <= i.
	b := sort.Search(len(t.prefix), func(k int) bool { return t.prefix[k] > i }) - 1
	return b, t.prefix[b], true
}

func (t *blockTable) prefixTotalLocked() int64 {
	if len(t.sizes) == 0 {
		return 0
	}
	return t.prefix[len(t.prefix)-1] + t.sizes[len(t.sizes)-1]
}

func (t *blockTable) blockBase(block int) int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.prefix[block]
}

func (t *blockTable) snapshot() []int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]int64(nil), t.sizes...)
}

// vectorResolver resolves positional indices through the block table.
type vectorResolver struct {
	table  *blockTable
	mapper partition.Mapper
}

func (r vectorResolver) Find(gid int64) partition.Info {
	if b, _, ok := r.table.locate(gid); ok {
		return partition.Found(partition.BCID(b))
	}
	return partition.Forward(0)
}

func (r vectorResolver) OwnerOf(b partition.BCID) int { return r.mapper.Map(b) }

// Vector is the per-location representative of a pVector of element type T.
type Vector[T any] struct {
	core.Container[int64, *bcontainer.Vector[T]]

	table  *blockTable
	mapper partition.Mapper
	traits core.Traits

	// ops are the registered element operations for T.
	ops *elemOps[T]
}

// elemOps are the two registered element operations of the block at element
// type T (see parray/ops.go: same scheme, same by-value rule).
type elemOps[T any] struct {
	set *core.ElemOp[int64, *bcontainer.Vector[T], T, struct{}]
	get *core.ElemOp[int64, *bcontainer.Vector[T], struct{}, T]
}

func elemOpsFor[T any]() *elemOps[T] {
	return core.OncePerType(func() *elemOps[T] {
		codec := transport.CodecOf[T]()
		name := "pvector[" + codec.Name + "]"
		return &elemOps[T]{
			set: core.RegisterWrite(name+"/set", name+"/bulk-set", transport.Int64Codec, codec, (*bcontainer.Vector[T]).Set),
			get: core.RegisterRead(name+"/get", name+"/bulk-get", transport.Int64Codec, codec, (*bcontainer.Vector[T]).Get),
		}
	})
}

// Option customises pVector construction.
type Option func(*voptions)

type voptions struct {
	traits core.Traits
	hasTr  bool
}

// WithTraits overrides the default traits.
func WithTraits(t core.Traits) Option { return func(o *voptions) { o.traits = t; o.hasTr = true } }

// New constructs a pVector with n initial (zero-valued) elements, one block
// per location.  Collective.
func New[T any](loc *runtime.Location, n int64, opts ...Option) *Vector[T] {
	var o voptions
	for _, fn := range opts {
		fn(&o)
	}
	if !o.hasTr {
		o.traits = core.DefaultTraits()
	}
	p := loc.NumLocations()
	blocks := domain.NewRange1D(0, n).Split(p)
	sizes := make([]int64, p)
	for i, b := range blocks {
		sizes[i] = b.Size()
	}
	v := &Vector[T]{table: newBlockTable(sizes), mapper: partition.NewBlockedMapper(p, p), traits: o.traits, ops: elemOpsFor[T]()}
	v.InitContainer(loc, vectorResolver{table: v.table, mapper: v.mapper}, o.traits)
	self := loc.ID()
	v.LocationManager().Add(bcontainer.NewVector[T](partition.BCID(self), blocks[self]))
	// Constructors are collective: wait for every representative.
	loc.Barrier()
	return v
}

// Size returns the current global number of elements as recorded by this
// location's replica of the block table.  After a fence all replicas agree.
func (v *Vector[T]) Size() int64 { return v.table.total() }

// Get returns the element at global index i (synchronous).
func (v *Vector[T]) Get(i int64) T {
	return v.ops.get.Sync(&v.Container, i, struct{}{})
}

// Set stores val at global index i (asynchronous).
func (v *Vector[T]) Set(i int64, val T) {
	v.ops.set.Async(&v.Container, i, val, runtime.PayloadBytes(val))
}

// Apply applies fn to the element at global index i in place (asynchronous).
func (v *Vector[T]) Apply(i int64, fn func(T) T) {
	v.Invoke(i, core.Write, func(_ *runtime.Location, bc *bcontainer.Vector[T]) { bc.Apply(i, fn) })
}

// GetSplit starts a split-phase read of index i.
func (v *Vector[T]) GetSplit(i int64) *runtime.FutureOf[T] {
	return runtime.NewFutureOf[T](v.ops.get.Split(&v.Container, i, struct{}{}))
}

// SetBulk stores vals[k] at global index idxs[k] for every k, asynchronously:
// the batch is resolved against the block table once and shipped as one
// sized RMI per owning location.  Groups shipped to other locations copy
// their share, so neither slice is retained past the call.
func (v *Vector[T]) SetBulk(idxs []int64, vals []T) {
	if len(idxs) != len(vals) {
		panic("pvector: SetBulk index/value length mismatch")
	}
	if len(idxs) == 0 {
		return
	}
	bytesPerOp := 8 + runtime.PayloadBytes(vals[0]) // index + value
	v.ops.set.BulkAsync(&v.Container, idxs, vals, bytesPerOp)
}

// GetBulk returns the elements at the given global indices, in order
// (synchronous; one round trip per owning location).
func (v *Vector[T]) GetBulk(idxs []int64) []T {
	out := make([]T, len(idxs))
	v.ops.get.BulkSync(&v.Container, idxs, nil, out, 8)
	return out
}

// ApplyBulk applies fn to every element named by idxs in place,
// asynchronously (the bulk counterpart of Apply).  The request carries the
// caller's fn, not copies: idxs and whatever fn captures are retained until
// the operations execute; do not mutate them before the next Fence.
func (v *Vector[T]) ApplyBulk(idxs []int64, fn func(T) T) {
	v.InvokeBulk(idxs, core.Write, 8, func(_ *runtime.Location, bc *bcontainer.Vector[T], k int) {
		bc.Apply(idxs[k], fn)
	})
}

// CombineBulk merges vals into the named elements with op (element becomes
// op(current, vals[k])), asynchronously: the accumulate flavour of the bulk
// path, used by the blocked matrix kernels to flush per-row partial results
// as one grouped request per owning location.  op should be commutative when
// several locations combine into the same element concurrently.  The request
// carries the caller's op, not copies: both slices are retained until the next
// Fence.
func (v *Vector[T]) CombineBulk(idxs []int64, vals []T, op func(cur, val T) T) {
	if len(idxs) != len(vals) {
		panic("pvector: CombineBulk index/value length mismatch")
	}
	if len(idxs) == 0 {
		return
	}
	bytesPerOp := 8 + runtime.PayloadBytes(vals[0])
	v.InvokeBulk(idxs, core.Write, bytesPerOp, func(_ *runtime.Location, bc *bcontainer.Vector[T], k int) {
		bc.Apply(idxs[k], func(cur T) T { return op(cur, vals[k]) })
	})
}

// PushBack appends val at the global end of the vector (amortised O(1) plus
// one metadata broadcast).  Asynchronous.
func (v *Vector[T]) PushBack(val T) {
	last := v.table.prefixLen() - 1
	v.mutateBlock(last, func(bc *bcontainer.Vector[T]) { bc.PushBack(val) }, +1)
}

// prefixLen returns the number of blocks.
func (t *blockTable) prefixLen() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.sizes)
}

// PopBack removes the last element.  Asynchronous.
func (v *Vector[T]) PopBack() {
	last := v.table.prefixLen() - 1
	v.mutateBlock(last, func(bc *bcontainer.Vector[T]) { bc.PopBack() }, -1)
}

// Insert inserts val before global index i.  The owning block shifts its
// elements (linear in the block size) and the size change is broadcast to
// every location's metadata replica — the cost that separates pVector from
// pList on dynamic workloads.
func (v *Vector[T]) Insert(i int64, val T) {
	block, _, ok := v.table.locate(i)
	if !ok {
		// Appending at the very end.
		v.PushBack(val)
		return
	}
	v.mutateBlock(block, func(bc *bcontainer.Vector[T]) { bc.Insert(i, val) }, +1)
}

// Erase removes the element at global index i.  Asynchronous.
func (v *Vector[T]) Erase(i int64) {
	block, _, ok := v.table.locate(i)
	if !ok {
		return
	}
	v.mutateBlock(block, func(bc *bcontainer.Vector[T]) { bc.Erase(i) }, -1)
}

// mutateBlock runs a structural mutation on the owning location of a block
// and broadcasts the size delta to all metadata replicas.
func (v *Vector[T]) mutateBlock(block int, action func(bc *bcontainer.Vector[T]), delta int64) {
	loc := v.Location()
	owner := v.mapper.Map(partition.BCID(block))
	run := func(self *core.Container[int64, *bcontainer.Vector[T]], l *runtime.Location) {
		bc := self.LocationManager().MustGet(partition.BCID(block))
		self.ThreadSafety().DataAccessPre(partition.BCID(block), core.Write)
		action(bc)
		self.ThreadSafety().DataAccessPost(partition.BCID(block), core.Write)
	}
	if owner == loc.ID() {
		run(&v.Container, loc)
	} else {
		v.InvokeAt(owner, func(l *runtime.Location, self *core.Container[int64, *bcontainer.Vector[T]]) {
			run(self, l)
		})
	}
	// Broadcast the metadata update so every replica of the block table
	// reflects the new sizes.  The sender updates its replica immediately
	// (program order per location); remote replicas converge by the next
	// fence.
	for d := 0; d < loc.NumLocations(); d++ {
		if d == loc.ID() {
			v.table.adjust(block, delta)
			continue
		}
		v.InvokeAt(d, func(_ *runtime.Location, self *core.Container[int64, *bcontainer.Vector[T]]) {
			r := self.Resolver().(vectorResolver)
			r.table.adjust(block, delta)
		})
	}
	// Rebase the blocks after the mutated one so their elements' global
	// indices stay consistent with the prefix sums.
	v.rebaseAll()
}

// rebaseAll asks every location to realign its block's base index with the
// current prefix table.  Asynchronous; consistent by the next fence.  The
// rebase is a write to the block's storage metadata, so it runs under the
// thread-safety manager's write bracket (concurrent element reads hold the
// read bracket of the same block).
func (v *Vector[T]) rebaseAll() {
	loc := v.Location()
	for d := 0; d < loc.NumLocations(); d++ {
		v.InvokeAt(d, func(_ *runtime.Location, self *core.Container[int64, *bcontainer.Vector[T]]) {
			r := self.Resolver().(vectorResolver)
			ths := self.ThreadSafety()
			self.LocationManager().ForEach(func(bc *bcontainer.Vector[T]) {
				b := bc.BCID()
				ths.DataAccessPre(b, core.Write)
				bc.SetBase(r.table.blockBase(int(b)))
				ths.DataAccessPost(b, core.Write)
			})
		})
	}
}

// LocalSegment returns the raw storage backing the global index range
// [r.Lo, r.Hi) when one local block holds it entirely, and ok=false
// otherwise.  Only valid during phases without structural operations
// (push/insert/erase move and rebase blocks); pAlgorithm use over native
// views satisfies that, since structural mutation is fenced off from
// element-wise traversal.
func (v *Vector[T]) LocalSegment(r domain.Range1D) ([]T, bool) {
	if r.Empty() {
		return nil, false
	}
	var out []T
	ok := false
	v.ForEachLocalBC(core.Read, func(bc *bcontainer.Vector[T]) {
		if ok {
			return
		}
		d := bc.Domain()
		if r.Lo >= d.Lo && r.Hi <= d.Hi {
			out = bc.Slice()[r.Lo-d.Lo : r.Hi-d.Lo]
			ok = true
		}
	})
	return out, ok
}

// LocalRange applies fn to every locally stored (index, value) pair.
func (v *Vector[T]) LocalRange(fn func(gid int64, val T) bool) {
	v.ForEachLocalBC(core.Read, func(bc *bcontainer.Vector[T]) { bc.Range(fn) })
}

// LocalUpdate replaces every locally stored element with fn's result.
func (v *Vector[T]) LocalUpdate(fn func(gid int64, val T) T) {
	v.ForEachLocalBC(core.Write, func(bc *bcontainer.Vector[T]) { bc.Update(fn) })
}

// LocalDomain returns the contiguous global index range stored locally.
func (v *Vector[T]) LocalDomain() domain.Range1D {
	var out domain.Range1D
	first := true
	v.ForEachLocalBC(core.Read, func(bc *bcontainer.Vector[T]) {
		if first {
			out = bc.Domain()
			first = false
		} else {
			d := bc.Domain()
			if d.Lo < out.Lo {
				out.Lo = d.Lo
			}
			if d.Hi > out.Hi {
				out.Hi = d.Hi
			}
		}
	})
	return out
}

// BlockSizes returns this location's view of the per-block sizes.
func (v *Vector[T]) BlockSizes() []int64 { return v.table.snapshot() }

// MemorySize returns the container-wide data/metadata footprint. Collective.
func (v *Vector[T]) MemorySize() core.MemoryUsage {
	meta := int64(len(v.table.snapshot()))*16 + partition.MemoryBytes(v.mapper)
	return v.GlobalMemory(meta)
}
