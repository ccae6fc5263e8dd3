package bcontainer

import (
	"fmt"
	"sort"
	"unsafe"

	"repro/internal/domain"
	"repro/internal/partition"
	"repro/internal/transport"
)

// SparseMatrixBlock is the CSR sibling of MatrixBlock: the elements of one
// rectangular sub-domain stored as compressed sparse rows — a row-pointer
// array plus parallel (column, value) arrays holding only the explicitly set
// entries, sorted by column within each row.  Absent entries read as the
// zero value, so a sparse block is element-for-element interchangeable with
// a dense one whose unset elements are zero, at a footprint that scales with
// the nonzeros.
type SparseMatrixBlock[T any] struct {
	bcid partition.BCID
	rows domain.Range1D
	cols domain.Range1D

	rowPtr []int64 // len rows.Size()+1; entries of row r live in [rowPtr[r-lo], rowPtr[r-lo+1])
	nzCols []int64 // global column indices, ascending within each row
	vals   []T
}

// NewSparseMatrixBlock returns an empty (all-zero) CSR block covering
// rows × cols.
func NewSparseMatrixBlock[T any](bcid partition.BCID, rows, cols domain.Range1D) *SparseMatrixBlock[T] {
	return &SparseMatrixBlock[T]{
		bcid:   bcid,
		rows:   rows,
		cols:   cols,
		rowPtr: make([]int64, rows.Size()+1),
	}
}

// BCID returns the sub-domain identifier.
func (m *SparseMatrixBlock[T]) BCID() partition.BCID { return m.bcid }

// Rows returns the block's row range.
func (m *SparseMatrixBlock[T]) Rows() domain.Range1D { return m.rows }

// Cols returns the block's column range.
func (m *SparseMatrixBlock[T]) Cols() domain.Range1D { return m.cols }

// Size returns the dense capacity of the sub-domain (rows × cols), like the
// dense block: the block represents every element, it just stores few.
func (m *SparseMatrixBlock[T]) Size() int64 { return m.rows.Size() * m.cols.Size() }

// NNZ returns the number of explicitly stored entries.
func (m *SparseMatrixBlock[T]) NNZ() int64 { return int64(len(m.vals)) }

// Empty reports whether no entries are explicitly stored.
func (m *SparseMatrixBlock[T]) Empty() bool { return len(m.vals) == 0 }

// Clear removes every explicit entry (all elements read as zero again).
func (m *SparseMatrixBlock[T]) Clear() {
	m.rowPtr = make([]int64, m.rows.Size()+1)
	m.nzCols, m.vals = nil, nil
}

func (m *SparseMatrixBlock[T]) checkIndex(g domain.Index2D) {
	if !m.rows.Contains(g.Row) || !m.cols.Contains(g.Col) {
		panic(fmt.Sprintf("bcontainer: index (%d,%d) outside sparse block rows %v cols %v", g.Row, g.Col, m.rows, m.cols))
	}
}

// rowSpan returns the [lo, hi) positions of row's entries in nzCols/vals.
func (m *SparseMatrixBlock[T]) rowSpan(row int64) (int, int) {
	r := row - m.rows.Lo
	return int(m.rowPtr[r]), int(m.rowPtr[r+1])
}

// find returns the position of (row, col), or the insertion position and
// false when the entry is absent.
func (m *SparseMatrixBlock[T]) find(g domain.Index2D) (int, bool) {
	lo, hi := m.rowSpan(g.Row)
	i := lo + sort.Search(hi-lo, func(k int) bool { return m.nzCols[lo+k] >= g.Col })
	return i, i < hi && m.nzCols[i] == g.Col
}

// Get returns the element at g — the stored entry, or the zero value.
func (m *SparseMatrixBlock[T]) Get(g domain.Index2D) T {
	m.checkIndex(g)
	if i, ok := m.find(g); ok {
		return m.vals[i]
	}
	var zero T
	return zero
}

// Set stores val at g as an explicit entry (inserting or overwriting).
func (m *SparseMatrixBlock[T]) Set(g domain.Index2D, val T) {
	m.checkIndex(g)
	i, ok := m.find(g)
	if ok {
		m.vals[i] = val
		return
	}
	m.nzCols = append(m.nzCols, 0)
	copy(m.nzCols[i+1:], m.nzCols[i:])
	m.nzCols[i] = g.Col
	var zero T
	m.vals = append(m.vals, zero)
	copy(m.vals[i+1:], m.vals[i:])
	m.vals[i] = val
	for r := g.Row - m.rows.Lo + 1; r < int64(len(m.rowPtr)); r++ {
		m.rowPtr[r]++
	}
}

// Apply applies fn to the element at g in place (reading zero when absent,
// storing the result as an explicit entry).
func (m *SparseMatrixBlock[T]) Apply(g domain.Index2D, fn func(T) T) {
	m.checkIndex(g)
	if i, ok := m.find(g); ok {
		m.vals[i] = fn(m.vals[i])
		return
	}
	var zero T
	m.Set(g, fn(zero))
}

// Erase removes the explicit entry at g (the element reads as zero after),
// reporting whether one was stored.
func (m *SparseMatrixBlock[T]) Erase(g domain.Index2D) bool {
	m.checkIndex(g)
	i, ok := m.find(g)
	if !ok {
		return false
	}
	m.nzCols = append(m.nzCols[:i], m.nzCols[i+1:]...)
	m.vals = append(m.vals[:i], m.vals[i+1:]...)
	for r := g.Row - m.rows.Lo + 1; r < int64(len(m.rowPtr)); r++ {
		m.rowPtr[r]--
	}
	return true
}

// RowNZ returns the raw CSR storage of one row — the ascending global column
// indices and their values — without copying.  It is the native span the
// coarsened sparse kernels walk; callers follow the native-view discipline
// (read-only, own work decomposition, fence between conflicting phases).
func (m *SparseMatrixBlock[T]) RowNZ(row int64) (cols []int64, vals []T) {
	if !m.rows.Contains(row) {
		panic(fmt.Sprintf("bcontainer: row %d outside sparse block rows %v", row, m.rows))
	}
	lo, hi := m.rowSpan(row)
	return m.nzCols[lo:hi:hi], m.vals[lo:hi:hi]
}

// RangeNZ iterates the stored entries in row-major order, stopping early if
// fn returns false.
func (m *SparseMatrixBlock[T]) RangeNZ(fn func(g domain.Index2D, val T) bool) {
	for r := m.rows.Lo; r < m.rows.Hi; r++ {
		lo, hi := m.rowSpan(r)
		for i := lo; i < hi; i++ {
			if !fn(domain.Index2D{Row: r, Col: m.nzCols[i]}, m.vals[i]) {
				return
			}
		}
	}
}

// InstallRow merges one wire row into the block.  The fast path — the row is
// locally empty, the normal case during relayout — splices the whole row in
// one copy; otherwise entries merge individually.
func (m *SparseMatrixBlock[T]) InstallRow(seg SparseRow[T]) {
	if len(seg.Cols) == 0 {
		return
	}
	lo, hi := m.rowSpan(seg.Row)
	if lo == hi {
		i := lo
		m.nzCols = append(m.nzCols, seg.Cols...)
		copy(m.nzCols[i+len(seg.Cols):], m.nzCols[i:])
		copy(m.nzCols[i:], seg.Cols)
		m.vals = append(m.vals, seg.Vals...)
		copy(m.vals[i+len(seg.Vals):], m.vals[i:])
		copy(m.vals[i:], seg.Vals)
		for r := seg.Row - m.rows.Lo + 1; r < int64(len(m.rowPtr)); r++ {
			m.rowPtr[r] += int64(len(seg.Cols))
		}
		return
	}
	for k, c := range seg.Cols {
		m.Set(domain.Index2D{Row: seg.Row, Col: c}, seg.Vals[k])
	}
}

// MemoryBytes reports data and metadata footprints: values and column
// indices are data (they scale with the nonzeros), the row-pointer array is
// metadata.
func (m *SparseMatrixBlock[T]) MemoryBytes() (data, meta int64) {
	var t T
	data = int64(len(m.vals))*int64(unsafe.Sizeof(t)) + int64(len(m.nzCols))*8
	meta = int64(len(m.rowPtr))*8 + int64(unsafe.Sizeof(*m))
	return data, meta
}

// SparseRow is the wire form of one CSR row: the global row index plus the
// row's (column, value) entries in ascending column order.  It is the
// element type sparse relayout/migration ships — encoded bytes scale with
// the row's nonzeros, never with the column span.
type SparseRow[T any] struct {
	Row  int64
	Cols []int64
	Vals []T
}

// SparseRowCodec derives the wire codec for SparseRow[T] from the element
// codec: row varint, entry count, delta-compressed ascending columns, then
// the values.  Decoding validates the structure (monotone columns, sane
// counts) so corrupt frames fail sticky instead of building broken rows.
// The row crosses by value iff its elements do.
func SparseRowCodec[T any](elem transport.Codec[T]) transport.Codec[SparseRow[T]] {
	return transport.Derive("bcontainer.sparse-row["+elem.Name+"]",
		func(b *transport.Buffer, v SparseRow[T]) {
			b.PutVarint(v.Row)
			b.PutUvarint(uint64(len(v.Cols)))
			prev := int64(0)
			for i, c := range v.Cols {
				if i == 0 {
					b.PutVarint(c)
				} else {
					b.PutUvarint(uint64(c - prev))
				}
				prev = c
			}
			for _, x := range v.Vals {
				elem.Encode(b, x)
			}
		},
		func(b *transport.Buffer) SparseRow[T] {
			row := b.Varint()
			n := b.Uvarint()
			if n > uint64(b.Remaining()) {
				b.Fail("sparse row: %d entries, %d bytes left", n, b.Remaining())
				return SparseRow[T]{}
			}
			cols := make([]int64, n)
			prev := int64(0)
			for i := range cols {
				if i == 0 {
					cols[i] = b.Varint()
				} else {
					d := b.Uvarint()
					if d == 0 {
						b.Fail("sparse row: non-increasing columns")
						return SparseRow[T]{}
					}
					cols[i] = prev + int64(d)
				}
				prev = cols[i]
			}
			vals := make([]T, n)
			for i := range vals {
				vals[i] = elem.Decode(b)
			}
			if b.Err() != nil {
				return SparseRow[T]{}
			}
			return SparseRow[T]{Row: row, Cols: cols, Vals: vals}
		},
		elem)
}

// EncodedRowBytes returns the size one row is accounted at under codec c (the
// byte-accounting hook sparse migration specs use): its exact wire size, so
// the counters report real compressed bytes, or — when T has no wire form and
// the row only ever crosses by reference — its in-memory CSR footprint.
func EncodedRowBytes[T any](c transport.Codec[SparseRow[T]], scratch *transport.Buffer, v SparseRow[T]) int {
	if !c.ByValue() {
		return 8 + 16*len(v.Cols)
	}
	scratch.Reset(scratch.Bytes()[:0])
	c.Encode(scratch, v)
	return scratch.Len()
}
