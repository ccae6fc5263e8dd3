package pmatrix

import (
	"fmt"

	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// SparseMatrix is the CSR-backed storage representation of the pMatrix: the
// same rows×cols index domain, block partitions and element methods as the
// dense Matrix, but each block stores only its explicitly set entries in
// compressed sparse rows (bcontainer.SparseMatrixBlock).  Unset elements
// read as the zero value, so a SparseMatrix is element-for-element
// interchangeable with a dense Matrix whose remaining elements are zero — at
// a resident footprint, and a relayout traffic, that scale with the nonzeros
// instead of rows×cols.
type SparseMatrix[T any] struct {
	core.Container[domain.Index2D, *bcontainer.SparseMatrixBlock[T]]

	dom    domain.Range2D
	part   *partition.Matrix
	mapper partition.Mapper

	// ops are the registered element operations for T.  See ops.go.
	ops *elemOps[T, *bcontainer.SparseMatrixBlock[T]]
}

// NewSparse constructs an all-zero rows×cols sparse pMatrix.  Collective.
func NewSparse[T any](loc *runtime.Location, rows, cols int64, opts ...Option) *SparseMatrix[T] {
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
	m := &SparseMatrix[T]{dom: dom, part: part, mapper: mapper, ops: sparseOpsFor[T]()}
	m.InitContainer(loc, matrixResolver{part: part, mapper: mapper}, o.traits)
	for _, b := range mapper.LocalBCIDs(loc.ID()) {
		r, c := part.Block(b)
		m.LocationManager().Add(bcontainer.NewSparseMatrixBlock[T](b, r, c))
	}
	// Constructors are collective: wait for every representative.
	loc.Barrier()
	return m
}

// Rows returns the number of rows.
func (m *SparseMatrix[T]) Rows() int64 { return m.dom.Rows }

// Cols returns the number of columns.
func (m *SparseMatrix[T]) Cols() int64 { return m.dom.Cols }

// Size returns the dense element count of the domain (rows × cols).
func (m *SparseMatrix[T]) Size() int64 { return m.dom.Size() }

// Domain returns the 2-D index domain.
func (m *SparseMatrix[T]) Domain() domain.Range2D { return m.dom }

// Partition returns the block partition in use.
func (m *SparseMatrix[T]) Partition() *partition.Matrix { return m.part }

// Mapper returns the block → location mapper in use.
func (m *SparseMatrix[T]) Mapper() partition.Mapper { return m.mapper }

// LocalNNZ returns the number of explicitly stored entries on this location.
func (m *SparseMatrix[T]) LocalNNZ() int64 {
	var n int64
	m.ForEachLocalBC(core.Read, func(bc *bcontainer.SparseMatrixBlock[T]) { n += bc.NNZ() })
	return n
}

// NNZ returns the global number of explicitly stored entries.  Collective.
func (m *SparseMatrix[T]) NNZ() int64 {
	return runtime.AllReduceSum(m.Location(), m.LocalNNZ())
}

// Get returns the element at (row, col) — the stored entry, or the zero
// value.  Synchronous.
func (m *SparseMatrix[T]) Get(row, col int64) T {
	return m.ops.get.Sync(&m.Container, domain.Index2D{Row: row, Col: col}, struct{}{})
}

// Set stores val at (row, col) as an explicit entry.  Asynchronous.
func (m *SparseMatrix[T]) Set(row, col int64, val T) {
	m.ops.set.Async(&m.Container, domain.Index2D{Row: row, Col: col}, val, 0)
}

// Apply applies fn to the element at (row, col) in place (reading zero when
// absent, storing the result as an explicit entry).  Asynchronous.
func (m *SparseMatrix[T]) Apply(row, col int64, fn func(T) T) {
	g := domain.Index2D{Row: row, Col: col}
	m.Invoke(g, core.Write, func(_ *runtime.Location, bc *bcontainer.SparseMatrixBlock[T]) { bc.Apply(g, fn) })
}

// EraseEntry removes the explicit entry at (row, col); the element reads as
// zero afterwards.  Asynchronous.
func (m *SparseMatrix[T]) EraseEntry(row, col int64) {
	g := domain.Index2D{Row: row, Col: col}
	m.Invoke(g, core.Write, func(_ *runtime.Location, bc *bcontainer.SparseMatrixBlock[T]) { bc.Erase(g) })
}

// GetBulk returns the elements at the given indices, in order (synchronous).
// One request and one response message per owning location.
func (m *SparseMatrix[T]) GetBulk(idxs []domain.Index2D) []T {
	out := make([]T, len(idxs))
	m.ops.get.BulkSync(&m.Container, idxs, nil, out, 16)
	return out
}

// SetBulk stores vals[k] at index idxs[k] for every k, asynchronously, one
// sized RMI per owning location.  Groups shipped to other locations copy
// their share, so neither slice is retained past the call.
func (m *SparseMatrix[T]) SetBulk(idxs []domain.Index2D, vals []T) {
	if len(idxs) != len(vals) {
		panic("pmatrix: SetBulk index/value length mismatch")
	}
	if len(idxs) == 0 {
		return
	}
	bytesPerOp := 16 + runtime.PayloadBytes(vals[0])
	m.ops.set.BulkAsync(&m.Container, idxs, vals, bytesPerOp)
}

// CombineBulk merges vals into the named elements with op (element becomes
// op(current, vals[k]), current reading zero when absent), asynchronously —
// the accumulate flavour the sparse kernels use to flush partial results.
// The request carries the caller's op, not copies: both slices are retained
// until the next Fence.
func (m *SparseMatrix[T]) CombineBulk(idxs []domain.Index2D, vals []T, op func(cur, val T) T) {
	if len(idxs) != len(vals) {
		panic("pmatrix: CombineBulk index/value length mismatch")
	}
	if len(idxs) == 0 {
		return
	}
	bytesPerOp := 16 + runtime.PayloadBytes(vals[0])
	m.InvokeBulk(idxs, core.Write, bytesPerOp, func(_ *runtime.Location, bc *bcontainer.SparseMatrixBlock[T], k int) {
		bc.Apply(idxs[k], func(cur T) T { return op(cur, vals[k]) })
	})
}

// SetLocal stores val at (row, col) directly into the local block owning it,
// reporting false when no local block covers the index.  It is the
// construction fast path the bench harness uses to build each location's
// share without communication; callers follow the native-view discipline.
func (m *SparseMatrix[T]) SetLocal(row, col int64, val T) bool {
	g := domain.Index2D{Row: row, Col: col}
	done := false
	m.ForEachLocalBC(core.Write, func(bc *bcontainer.SparseMatrixBlock[T]) {
		if !done && bc.Rows().Contains(row) && bc.Cols().Contains(col) {
			bc.Set(g, val)
			done = true
		}
	})
	return done
}

// LocalBlocks returns the (row range, column range) of every block stored on
// this location.
func (m *SparseMatrix[T]) LocalBlocks() (rows, cols []domain.Range1D) {
	for _, b := range m.LocationManager().BCIDs() {
		r, c := m.part.Block(b)
		rows = append(rows, r)
		cols = append(cols, c)
	}
	return rows, cols
}

// RangeLocalNZ applies fn to every locally stored entry in block, row-major
// order.
func (m *SparseMatrix[T]) RangeLocalNZ(fn func(g domain.Index2D, val T) bool) {
	m.ForEachLocalBC(core.Read, func(bc *bcontainer.SparseMatrixBlock[T]) { bc.RangeNZ(fn) })
}

// RangeLocalBlocks invokes fn for every locally stored CSR block under the
// read bracket, giving coarsened kernels the block's native row spans
// (RowNZ) without per-element calls.  Native-view discipline applies: treat
// the block as read-only and fence between conflicting phases.
func (m *SparseMatrix[T]) RangeLocalBlocks(fn func(bc *bcontainer.SparseMatrixBlock[T])) {
	m.ForEachLocalBC(core.Read, fn)
}

// RowNZSegment returns the native CSR span of one row — ascending global
// column indices and their values, without a copy — when a single local
// block holds the row and its column range lies inside cols; ok=false
// otherwise.  The sparse sibling of the dense RowSegment.
func (m *SparseMatrix[T]) RowNZSegment(row int64, cols domain.Range1D) (nzCols []int64, vals []T, ok bool) {
	var found bool
	m.ForEachLocalBC(core.Read, func(bc *bcontainer.SparseMatrixBlock[T]) {
		if !found && bc.Rows().Contains(row) && cols.Lo <= bc.Cols().Lo && bc.Cols().Hi <= cols.Hi {
			nzCols, vals = bc.RowNZ(row)
			found = true
		}
	})
	return nzCols, vals, found
}

// MemorySize returns the container-wide data/metadata footprint. Collective.
func (m *SparseMatrix[T]) MemorySize() core.MemoryUsage {
	meta := partition.MemoryBytes(m.mapper) + 64
	return m.GlobalMemory(meta)
}

// Redistribute reorganises the sparse matrix's entries according to a new
// 2-D block partition and mapper through the shared redistribution engine.
// The unit of migration is one compressed row fragment (SparseRow): each
// local row's CSR span is split at the new partition's column boundaries and
// shipped in wire form, so migration bytes scale with the nonzeros moved —
// never with the dense block sizes the same relayout would ship on a dense
// Matrix.  Collective.
func (m *SparseMatrix[T]) Redistribute(newPart *partition.Matrix, newMapper partition.Mapper) {
	if newPart.Domain() != m.dom {
		panic(fmt.Sprintf("pmatrix: Redistribute must keep the %dx%d domain, got %dx%d",
			m.dom.Rows, m.dom.Cols, newPart.Domain().Rows, newPart.Domain().Cols))
	}
	loc := m.Location()
	rowCodec := bcontainer.SparseRowCodec(transport.CodecOf[T]())
	var scratch transport.Buffer
	core.RunMigration(loc, core.MigrationSpec[bcontainer.SparseRow[T], *bcontainer.SparseMatrixBlock[T]]{
		NewLocal: newMapper.LocalBCIDs(loc.ID()),
		Alloc: func(b partition.BCID) *bcontainer.SparseMatrixBlock[T] {
			r, c := newPart.Block(b)
			return bcontainer.NewSparseMatrixBlock[T](b, r, c)
		},
		Enumerate: func(emit func(bcontainer.SparseRow[T])) {
			m.ForEachLocalBC(core.Read, func(bc *bcontainer.SparseMatrixBlock[T]) {
				rows := bc.Rows()
				for r := rows.Lo; r < rows.Hi; r++ {
					// The old storage is immutable for the whole migration
					// and dropped at install, so row spans ship without a
					// copy; a row crossing new column boundaries is split
					// into per-target fragments (entries are ascending, so
					// each fragment is one contiguous sub-span).
					cs, vs := bc.RowNZ(r)
					for i := 0; i < len(cs); {
						info := newPart.Find(domain.Index2D{Row: r, Col: cs[i]})
						_, colRange := newPart.Block(info.BCID)
						j := i + 1
						for j < len(cs) && cs[j] < colRange.Hi {
							j++
						}
						emit(bcontainer.SparseRow[T]{Row: r, Cols: cs[i:j:j], Vals: vs[i:j:j]})
						i = j
					}
				}
			})
		},
		Route: func(seg bcontainer.SparseRow[T]) (partition.BCID, int) {
			info := newPart.Find(domain.Index2D{Row: seg.Row, Col: seg.Cols[0]})
			return info.BCID, newMapper.Map(info.BCID)
		},
		Place: func(bc *bcontainer.SparseMatrixBlock[T], seg bcontainer.SparseRow[T]) {
			bc.InstallRow(seg)
		},
		Bytes: func(seg bcontainer.SparseRow[T]) int {
			return bcontainer.EncodedRowBytes(rowCodec, &scratch, seg)
		},
		Ops: sparseRowMigOpsFor[T](),
		Install: func(lm *core.LocationManager[*bcontainer.SparseMatrixBlock[T]]) {
			m.ReplaceLocationManager(lm)
			m.SetResolver(matrixResolver{part: newPart, mapper: newMapper})
			m.part, m.mapper = newPart, newMapper
		},
	})
}

// Relayout rebuilds the block decomposition with the given layout and block
// count (0 means one block per location) and migrates the entries into it.
// Collective.
func (m *SparseMatrix[T]) Relayout(layout partition.MatrixLayout, blocks int) {
	if blocks <= 0 {
		blocks = m.Location().NumLocations()
	}
	p := partition.NewMatrix(m.dom, blocks, layout)
	m.Redistribute(p, partition.NewBlockedMapper(p.NumSubdomains(), m.Location().NumLocations()))
}

// Rebalance evens out the per-location nonzero loads by remapping the
// existing blocks with the load-balance advisor's greedy proposal (the block
// grid stays fixed, only ownership moves).  Dense blocks weigh by element
// count; sparse blocks weigh by what they actually store.  Collective.
func (m *SparseMatrix[T]) Rebalance() {
	loc := m.Location()
	local := make([]int64, m.part.NumSubdomains())
	m.ForEachLocalBC(core.Read, func(bc *bcontainer.SparseMatrixBlock[T]) {
		local[int(bc.BCID())] = bc.NNZ()
	})
	sizes := partition.CollectSubSizes(loc, local)
	m.Redistribute(m.part, partition.ProposeMapping(sizes, loc.NumLocations()))
}
