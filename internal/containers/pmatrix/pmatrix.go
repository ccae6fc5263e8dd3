// Package pmatrix implements the STAPL pMatrix: a dense two-dimensional
// indexed pContainer partitioned into rectangular blocks (by rows, by
// columns or checkerboard) distributed over the locations.
package pmatrix

import (
	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/partition"
	"repro/internal/runtime"
)

// matrixResolver adapts a 2-D matrix partition plus a mapper into a
// core.Resolver over Index2D GIDs.
type matrixResolver struct {
	part   *partition.Matrix
	mapper partition.Mapper
}

func (r matrixResolver) Find(g domain.Index2D) partition.Info { return r.part.Find(g) }
func (r matrixResolver) OwnerOf(b partition.BCID) int         { return r.mapper.Map(b) }

// Matrix is the per-location representative of a pMatrix of element type T.
type Matrix[T any] struct {
	core.Container[domain.Index2D, *bcontainer.MatrixBlock[T]]

	dom    domain.Range2D
	part   *partition.Matrix
	mapper partition.Mapper

	// ops are the registered element operations for T.  See ops.go.
	ops *elemOps[T, *bcontainer.MatrixBlock[T]]
}

// Option customises pMatrix construction.
type Option func(*options)

type options struct {
	layout partition.MatrixLayout
	blocks int
	traits core.Traits
	hasTr  bool
}

// WithLayout selects the block decomposition (default RowBlocked).
func WithLayout(l partition.MatrixLayout) Option { return func(o *options) { o.layout = l } }

// WithBlocks overrides the number of blocks (default: one per location).
func WithBlocks(n int) Option { return func(o *options) { o.blocks = n } }

// WithTraits overrides the default traits.
func WithTraits(t core.Traits) Option { return func(o *options) { o.traits = t; o.hasTr = true } }

// New constructs a rows×cols pMatrix.  Collective.
func New[T any](loc *runtime.Location, rows, cols int64, opts ...Option) *Matrix[T] {
	o := options{layout: partition.RowBlocked}
	for _, fn := range opts {
		fn(&o)
	}
	if o.blocks <= 0 {
		o.blocks = loc.NumLocations()
	}
	if !o.hasTr {
		o.traits = core.DefaultTraits()
	}
	dom := domain.NewRange2D(rows, cols)
	part := partition.NewMatrix(dom, o.blocks, o.layout)
	mapper := partition.NewBlockedMapper(part.NumSubdomains(), loc.NumLocations())
	m := &Matrix[T]{dom: dom, part: part, mapper: mapper, ops: denseOpsFor[T]()}
	m.InitContainer(loc, matrixResolver{part: part, mapper: mapper}, o.traits)
	for _, b := range mapper.LocalBCIDs(loc.ID()) {
		r, c := part.Block(b)
		m.LocationManager().Add(bcontainer.NewMatrixBlock[T](b, r, c))
	}
	// Constructors are collective: wait for every representative.
	loc.Barrier()
	return m
}

// Rows returns the number of rows.
func (m *Matrix[T]) Rows() int64 { return m.dom.Rows }

// Cols returns the number of columns.
func (m *Matrix[T]) Cols() int64 { return m.dom.Cols }

// Size returns the number of elements.
func (m *Matrix[T]) Size() int64 { return m.dom.Size() }

// Domain returns the 2-D index domain.
func (m *Matrix[T]) Domain() domain.Range2D { return m.dom }

// Partition returns the block partition in use.
func (m *Matrix[T]) Partition() *partition.Matrix { return m.part }

// Mapper returns the block → location mapper in use.
func (m *Matrix[T]) Mapper() partition.Mapper { return m.mapper }

// Get returns the element at (row, col).  Synchronous.
func (m *Matrix[T]) Get(row, col int64) T {
	return m.ops.get.Sync(&m.Container, domain.Index2D{Row: row, Col: col}, struct{}{})
}

// Set stores val at (row, col).  Asynchronous.
func (m *Matrix[T]) Set(row, col int64, val T) {
	m.ops.set.Async(&m.Container, domain.Index2D{Row: row, Col: col}, val, 0)
}

// Apply applies fn to the element at (row, col) in place.  Asynchronous.
func (m *Matrix[T]) Apply(row, col int64, fn func(T) T) {
	g := domain.Index2D{Row: row, Col: col}
	m.Invoke(g, core.Write, func(_ *runtime.Location, bc *bcontainer.MatrixBlock[T]) { bc.Apply(g, fn) })
}

// GetSplit starts a split-phase read of the element at (row, col).
func (m *Matrix[T]) GetSplit(row, col int64) *runtime.FutureOf[T] {
	return runtime.NewFutureOf[T](m.ops.get.Split(&m.Container, domain.Index2D{Row: row, Col: col}, struct{}{}))
}

// SetBulk stores vals[k] at index idxs[k] for every k, asynchronously.  The
// whole batch is resolved under one metadata bracket, grouped by owning
// location and shipped as one sized RMI per destination (AsyncRMIBulk), like
// the bulk element methods of the other container families.  Groups shipped
// to other locations copy their share, so neither slice is retained past the
// call.
func (m *Matrix[T]) SetBulk(idxs []domain.Index2D, vals []T) {
	if len(idxs) != len(vals) {
		panic("pmatrix: SetBulk index/value length mismatch")
	}
	if len(idxs) == 0 {
		return
	}
	bytesPerOp := 16 + runtime.PayloadBytes(vals[0]) // (row, col) + value
	m.ops.set.BulkAsync(&m.Container, idxs, vals, bytesPerOp)
}

// GetBulk returns the elements at the given indices, in order (synchronous).
// One request and one response message per owning location, regardless of
// batch size.
func (m *Matrix[T]) GetBulk(idxs []domain.Index2D) []T {
	out := make([]T, len(idxs))
	m.ops.get.BulkSync(&m.Container, idxs, nil, out, 16)
	return out
}

// ApplyBulk applies fn to every element named by idxs in place,
// asynchronously (the bulk counterpart of Apply).  The request carries the
// caller's fn, not copies: idxs and whatever fn captures are retained until
// the operations execute; do not mutate them before the next Fence.
func (m *Matrix[T]) ApplyBulk(idxs []domain.Index2D, fn func(T) T) {
	m.InvokeBulk(idxs, core.Write, 16, func(_ *runtime.Location, bc *bcontainer.MatrixBlock[T], k int) {
		bc.Apply(idxs[k], fn)
	})
}

// CombineBulk merges vals into the named elements with op (element becomes
// op(current, vals[k])), asynchronously.  It is the accumulate flavour the
// blocked kernels use to flush partial results: one bulk RMI per destination
// per call, commutative-op semantics across concurrent contributors.  The
// request carries the caller's op, not copies: both slices are retained until
// the next Fence.
func (m *Matrix[T]) CombineBulk(idxs []domain.Index2D, vals []T, op func(cur, val T) T) {
	if len(idxs) != len(vals) {
		panic("pmatrix: CombineBulk index/value length mismatch")
	}
	if len(idxs) == 0 {
		return
	}
	bytesPerOp := 16 + runtime.PayloadBytes(vals[0])
	m.InvokeBulk(idxs, core.Write, bytesPerOp, func(_ *runtime.Location, bc *bcontainer.MatrixBlock[T], k int) {
		bc.Apply(idxs[k], func(cur T) T { return op(cur, vals[k]) })
	})
}

// rowStripIdxs materialises the 2-D indices of one row strip.
func rowStripIdxs(row int64, cols domain.Range1D) []domain.Index2D {
	idxs := make([]domain.Index2D, 0, cols.Size())
	for c := cols.Lo; c < cols.Hi; c++ {
		idxs = append(idxs, domain.Index2D{Row: row, Col: c})
	}
	return idxs
}

// GetRowStrip reads the row strip (row, [cols.Lo, cols.Hi)) in column order:
// one grouped bulk request per owning location, however many blocks the
// strip crosses.  Synchronous.
func (m *Matrix[T]) GetRowStrip(row int64, cols domain.Range1D) []T {
	return m.GetBulk(rowStripIdxs(row, cols))
}

// SetRowStrip writes vals over the row strip (row, [cols.Lo, cols.Hi)),
// asynchronously, one grouped bulk request per owning location.  vals is not
// retained past the call.
func (m *Matrix[T]) SetRowStrip(row int64, cols domain.Range1D, vals []T) {
	if int64(len(vals)) != cols.Size() {
		panic("pmatrix: SetRowStrip value/range length mismatch")
	}
	m.SetBulk(rowStripIdxs(row, cols), vals)
}

// RowSegment returns the raw storage backing the row strip
// (row, [cols.Lo, cols.Hi)) when one local block holds it entirely, and
// ok=false otherwise.  Like the 1-D LocalSegment methods it bypasses the
// per-access brackets: callers follow the native-view discipline (touch only
// their own work decomposition, fence between conflicting phases).
func (m *Matrix[T]) RowSegment(row int64, cols domain.Range1D) ([]T, bool) {
	if cols.Empty() {
		return nil, false
	}
	for _, id := range m.LocationManager().BCIDs() {
		r, c := m.part.Block(id)
		if r.Contains(row) && cols.Lo >= c.Lo && cols.Hi <= c.Hi {
			bc, ok := m.LocationManager().Get(id)
			if !ok {
				return nil, false
			}
			s := bc.RowSlice(row)
			return s[cols.Lo-c.Lo : cols.Hi-c.Lo], true
		}
	}
	return nil, false
}

// LinearSegment returns the raw storage backing the row-major linearised
// index range [r.Lo, r.Hi) — index row*Cols+col — when one local block backs
// it contiguously: either the run stays inside a single row of a block, or
// the owning block spans every column, in which case its whole row-major
// storage is one contiguous linear run.  The 2-D views hand these segments
// to Coarsen so native chunks are walked at raw-slice speed.
func (m *Matrix[T]) LinearSegment(r domain.Range1D) ([]T, bool) {
	if r.Empty() || m.dom.Cols == 0 {
		return nil, false
	}
	cols := m.dom.Cols
	row, col := r.Lo/cols, r.Lo%cols
	if (r.Hi-1)/cols == row {
		// The run stays inside one row.
		return m.RowSegment(row, domain.NewRange1D(col, col+r.Size()))
	}
	// Multi-row runs are contiguous only in full-width blocks.
	for _, id := range m.LocationManager().BCIDs() {
		br, bc := m.part.Block(id)
		if bc.Lo != 0 || bc.Hi != cols {
			continue
		}
		if r.Lo >= br.Lo*cols && r.Hi <= br.Hi*cols {
			blk, ok := m.LocationManager().Get(id)
			if !ok {
				return nil, false
			}
			s := blk.Slice()
			return s[r.Lo-br.Lo*cols : r.Hi-br.Lo*cols], true
		}
	}
	return nil, false
}

// LocalBlocks returns the (row range, column range) of every block stored on
// this location.
func (m *Matrix[T]) LocalBlocks() (rows, cols []domain.Range1D) {
	for _, b := range m.LocationManager().BCIDs() {
		r, c := m.part.Block(b)
		rows = append(rows, r)
		cols = append(cols, c)
	}
	return rows, cols
}

// RangeLocal applies fn to every locally stored (index, value) pair.
func (m *Matrix[T]) RangeLocal(fn func(g domain.Index2D, val T) bool) {
	m.ForEachLocalBC(core.Read, func(bc *bcontainer.MatrixBlock[T]) { bc.Range(fn) })
}

// UpdateLocal replaces every locally stored element with fn's result.
func (m *Matrix[T]) UpdateLocal(fn func(g domain.Index2D, val T) T) {
	m.ForEachLocalBC(core.Write, func(bc *bcontainer.MatrixBlock[T]) { bc.Update(fn) })
}

// LocalRowRange invokes fn for every locally stored row fragment: the global
// row index and the contiguous slice of that row's locally stored columns
// (starting at the block's first column).  Row-oriented algorithms (e.g. the
// row-minimum composition study, Fig. 62) use it to process local data
// without per-element calls.
func (m *Matrix[T]) LocalRowRange(fn func(row int64, colStart int64, vals []T)) {
	m.ForEachLocalBC(core.Read, func(bc *bcontainer.MatrixBlock[T]) {
		rows := bc.Rows()
		for r := rows.Lo; r < rows.Hi; r++ {
			fn(r, bc.Cols().Lo, bc.RowSlice(r))
		}
	})
}

// MemorySize returns the container-wide data/metadata footprint. Collective.
func (m *Matrix[T]) MemorySize() core.MemoryUsage {
	meta := partition.MemoryBytes(m.mapper) + 64
	return m.GlobalMemory(meta)
}
