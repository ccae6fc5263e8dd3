package views

import (
	"sort"

	"repro/internal/domain"
	"repro/internal/runtime"
)

// This file implements the composition layer of the pView algebra: views
// built from other views.  Every adaptor here is again a Partitioned view
// (so compositions nest arbitrarily: a Segmented of a Zip of a Strided is
// just another view), propagates the bulk element path of its constituents,
// and — where the composition permits — propagates locality, so Coarsen can
// still carve native chunks out of deeply composed views.

// Pair is the element type of a two-view zip.
type Pair[A any, B any] struct {
	First  A
	Second B
}

// Zip2 presents two equally indexed views as one view of pairs
// (zip_view): element i is (a[i], b[i]).  Reads and writes touch both
// constituents; the work decomposition follows the first view, which is the
// one algorithms usually keep native.
type Zip2[A any, B any] struct {
	A Partitioned[A]
	B Partitioned[B]
}

// NewZip2 builds a zip view; the views should have equal sizes (the zip
// domain is the intersection).
func NewZip2[A any, B any](a Partitioned[A], b Partitioned[B]) Zip2[A, B] {
	return Zip2[A, B]{A: a, B: b}
}

// Size returns the common domain size.
func (v Zip2[A, B]) Size() int64 {
	n := v.A.Size()
	if m := v.B.Size(); m < n {
		n = m
	}
	return n
}

// Get reads both constituents at i.
func (v Zip2[A, B]) Get(i int64) Pair[A, B] {
	return Pair[A, B]{First: v.A.Get(i), Second: v.B.Get(i)}
}

// Set writes both constituents at i.
func (v Zip2[A, B]) Set(i int64, p Pair[A, B]) {
	v.A.Set(i, p.First)
	v.B.Set(i, p.Second)
}

// GetBulk reads a batch from both constituents through their bulk paths.
func (v Zip2[A, B]) GetBulk(idxs []int64) []Pair[A, B] {
	as := ReadBatch[A](v.A, idxs)
	bs := ReadBatch[B](v.B, idxs)
	out := make([]Pair[A, B], len(idxs))
	for k := range out {
		out[k] = Pair[A, B]{First: as[k], Second: bs[k]}
	}
	return out
}

// SetBulk writes a batch into both constituents through their bulk paths.
func (v Zip2[A, B]) SetBulk(idxs []int64, vals []Pair[A, B]) {
	as := make([]A, len(vals))
	bs := make([]B, len(vals))
	for k, p := range vals {
		as[k] = p.First
		bs[k] = p.Second
	}
	WriteBatch[A](v.A, idxs, as)
	WriteBatch[B](v.B, idxs, bs)
}

// LocalRanges follows the first view's decomposition, clipped to the zip
// domain.
func (v Zip2[A, B]) LocalRanges(loc *runtime.Location) []domain.Range1D {
	dom := domain.NewRange1D(0, v.Size())
	var out []domain.Range1D
	for _, r := range v.A.LocalRanges(loc) {
		if c := r.Intersect(dom); !c.Empty() {
			out = append(out, c)
		}
	}
	return out
}

// LocalSpans reports the indices where BOTH constituents are local: only
// there can a zipped access stay message-free.
func (v Zip2[A, B]) LocalSpans(loc *runtime.Location) []domain.Range1D {
	a := localSpansOf(v.A, loc)
	b := localSpansOf(v.B, loc)
	dom := domain.NewRange1D(0, v.Size())
	var out []domain.Range1D
	for _, s := range intersectSpans(a, b) {
		if c := s.Intersect(dom); !c.Empty() {
			out = append(out, c)
		}
	}
	return out
}

// intersectSpans intersects two sorted, merged span lists.
func intersectSpans(a, b []domain.Range1D) []domain.Range1D {
	var out []domain.Range1D
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ov := a[i].Intersect(b[j])
		if !ov.Empty() {
			out = append(out, ov)
		}
		if a[i].Hi < b[j].Hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// ReadBatch reads the elements at idxs through the view's bulk path when it
// has one, element-wise otherwise.
func ReadBatch[T any](v RandomAccess[T], idxs []int64) []T {
	if b, ok := any(v).(BulkAccess[T]); ok {
		return b.GetBulk(idxs)
	}
	out := make([]T, len(idxs))
	for k, i := range idxs {
		out[k] = v.Get(i)
	}
	return out
}

// WriteBatch writes vals at idxs through the view's bulk path when it has
// one.  Like the containers' SetBulk it retains neither slice.
func WriteBatch[T any](v RandomAccess[T], idxs []int64, vals []T) {
	if b, ok := any(v).(BulkAccess[T]); ok {
		b.SetBulk(idxs, vals)
		return
	}
	for k, i := range idxs {
		v.Set(i, vals[k])
	}
}

// Subrange presents the window [Off, Off+Len) of a base view re-indexed
// from zero.  It is the element view of Segmented and useful on its own
// (slice_view).
type Subrange[T any] struct {
	Base     Partitioned[T]
	Off, Len int64
}

// NewSubrange builds a window over base; the window is clamped to the base
// domain.
func NewSubrange[T any](base Partitioned[T], off, length int64) Subrange[T] {
	if off < 0 {
		off = 0
	}
	if max := base.Size() - off; length > max {
		length = max
	}
	if length < 0 {
		length = 0
	}
	return Subrange[T]{Base: base, Off: off, Len: length}
}

// Size returns the window length.
func (v Subrange[T]) Size() int64 { return v.Len }

// Get reads window element i.
func (v Subrange[T]) Get(i int64) T { return v.Base.Get(v.Off + i) }

// Set writes window element i.
func (v Subrange[T]) Set(i int64, x T) { v.Base.Set(v.Off+i, x) }

// shift maps window indices into the base index space.
func (v Subrange[T]) shift(idxs []int64) []int64 {
	out := make([]int64, len(idxs))
	for k, i := range idxs {
		out[k] = i + v.Off
	}
	return out
}

// GetBulk reads a batch through the base's bulk path.
func (v Subrange[T]) GetBulk(idxs []int64) []T { return ReadBatch[T](v.Base, v.shift(idxs)) }

// SetBulk writes a batch through the base's bulk path.
func (v Subrange[T]) SetBulk(idxs []int64, vals []T) { WriteBatch[T](v.Base, v.shift(idxs), vals) }

// window returns the window as a base index range.
func (v Subrange[T]) window() domain.Range1D { return domain.NewRange1D(v.Off, v.Off+v.Len) }

// LocalRanges intersects the base decomposition with the window: across all
// locations the window is covered exactly once.
func (v Subrange[T]) LocalRanges(loc *runtime.Location) []domain.Range1D {
	return v.clipShift(v.Base.LocalRanges(loc))
}

// LocalSpans intersects the base's local spans with the window.
func (v Subrange[T]) LocalSpans(loc *runtime.Location) []domain.Range1D {
	if src, ok := v.Base.(LocalitySource); ok {
		return v.clipShift(src.LocalSpans(loc))
	}
	return nil
}

func (v Subrange[T]) clipShift(rs []domain.Range1D) []domain.Range1D {
	w := v.window()
	var out []domain.Range1D
	for _, r := range rs {
		if c := r.Intersect(w); !c.Empty() {
			out = append(out, domain.NewRange1D(c.Lo-v.Off, c.Hi-v.Off))
		}
	}
	return out
}

// LocalSegment exposes the base's raw storage shifted into the window.
func (v Subrange[T]) LocalSegment(r domain.Range1D) ([]T, bool) {
	if d, ok := v.Base.(DirectAccess[T]); ok {
		return d.LocalSegment(domain.NewRange1D(r.Lo+v.Off, r.Hi+v.Off))
	}
	return nil, false
}

// Segmented presents a view as an ordered sequence of segments aligned with
// the per-location storage of the base (segmented view, the paper's
// view-of-views): segment k is a Subrange over one location's span.  The
// segmented view is itself a Partitioned view of the flat elements whose
// work decomposition IS the segment list, so algorithms running over it
// process whole segments in place; segment-level algorithms use Segment(k)
// to recurse into one segment as an independent view.
type Segmented[T any] struct {
	Base  Partitioned[T]
	segs  []domain.Range1D
	owner []int
	// aligned records whether the segments came from storage locality (and
	// owned segments may be reported as local spans) or from the base's
	// work decomposition only.
	aligned bool
}

// NewSegmented builds the segmented view collectively: every location
// contributes its spans (its local storage when the base reports locality,
// its work share otherwise), and the gathered spans — which tile the domain
// exactly once — become the segment list, identical on every location.
func NewSegmented[T any](loc *runtime.Location, base Partitioned[T]) Segmented[T] {
	spans := localSpansOf(base, loc)
	aligned := spans != nil
	if spans == nil {
		spans = base.LocalRanges(loc)
	}
	all := runtime.AllGatherT(loc, spans)
	var segs []domain.Range1D
	var owner []int
	for who, part := range all {
		for _, s := range part {
			if !s.Empty() {
				segs = append(segs, s)
				owner = append(owner, who)
			}
		}
	}
	ord := make([]int, len(segs))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(i, j int) bool { return segs[ord[i]].Lo < segs[ord[j]].Lo })
	sortedSegs := make([]domain.Range1D, len(segs))
	sortedOwner := make([]int, len(segs))
	for k, i := range ord {
		sortedSegs[k] = segs[i]
		sortedOwner[k] = owner[i]
	}
	// The gathered spans must tile [0, Size()) exactly once; replicated
	// bases (every index local everywhere) and irregular compositions do
	// not, so fall back to an even split with one segment per location.
	if !tiles(sortedSegs, base.Size()) {
		sortedSegs = sortedSegs[:0]
		sortedOwner = sortedOwner[:0]
		for who, s := range domain.NewRange1D(0, base.Size()).Split(loc.NumLocations()) {
			if !s.Empty() {
				sortedSegs = append(sortedSegs, s)
				sortedOwner = append(sortedOwner, who)
			}
		}
		aligned = false
	}
	return Segmented[T]{Base: base, segs: sortedSegs, owner: sortedOwner, aligned: aligned}
}

// tiles reports whether the sorted ranges cover [0, n) exactly once.
func tiles(rs []domain.Range1D, n int64) bool {
	var cur int64
	for _, r := range rs {
		if r.Lo != cur {
			return false
		}
		cur = r.Hi
	}
	return cur == n
}

// NumSegments returns the number of segments.
func (v Segmented[T]) NumSegments() int { return len(v.segs) }

// SegmentRange returns segment k as a flat index range.
func (v Segmented[T]) SegmentRange(k int) domain.Range1D { return v.segs[k] }

// SegmentOwner returns the location that contributed segment k.
func (v Segmented[T]) SegmentOwner(k int) int { return v.owner[k] }

// Segment returns segment k as an independent view (re-indexed from zero),
// the "view of views" access path: algorithms recurse into it like into any
// other Partitioned view.
func (v Segmented[T]) Segment(k int) Subrange[T] {
	s := v.segs[k]
	return Subrange[T]{Base: v.Base, Off: s.Lo, Len: s.Size()}
}

// Size returns the flat element count.
func (v Segmented[T]) Size() int64 { return v.Base.Size() }

// Get reads flat element i.
func (v Segmented[T]) Get(i int64) T { return v.Base.Get(i) }

// Set writes flat element i.
func (v Segmented[T]) Set(i int64, x T) { v.Base.Set(i, x) }

// GetBulk reads a batch through the base's bulk path.
func (v Segmented[T]) GetBulk(idxs []int64) []T { return ReadBatch[T](v.Base, idxs) }

// SetBulk writes a batch through the base's bulk path.
func (v Segmented[T]) SetBulk(idxs []int64, vals []T) { WriteBatch[T](v.Base, idxs, vals) }

// LocalRanges assigns every location the segments it contributed — the
// segment list is the work decomposition.
func (v Segmented[T]) LocalRanges(loc *runtime.Location) []domain.Range1D {
	var out []domain.Range1D
	for k, s := range v.segs {
		if v.owner[k] == loc.ID() {
			out = append(out, s)
		}
	}
	return out
}

// LocalSpans reports the owned segments when they were derived from storage
// locality, and delegates to the base otherwise.
func (v Segmented[T]) LocalSpans(loc *runtime.Location) []domain.Range1D {
	if v.aligned {
		return v.LocalRanges(loc)
	}
	return localSpansOf(v.Base, loc)
}

// LocalSegment exposes the base's raw storage.
func (v Segmented[T]) LocalSegment(r domain.Range1D) ([]T, bool) {
	if d, ok := v.Base.(DirectAccess[T]); ok {
		return d.LocalSegment(r)
	}
	return nil, false
}

// Filtered presents the base elements accepted by a predicate as a dense
// view of their own (filter_view).  The accepted index set is computed
// collectively at construction — each location scans its own share — and
// the (index-only) mapping is replicated on every location, so element
// access needs no extra communication afterwards.  Writes pass through to
// the base.
type Filtered[T any] struct {
	Base Partitioned[T]
	idx  []int64          // accepted base indices, ascending (replicated)
	mine []domain.Range1D // view positions this location's scan contributed
}

// NewFiltered builds the filtered view collectively: accept is applied to
// every element exactly once machine-wide (each location scans its
// LocalRanges through the bulk read path).
func NewFiltered[T any](loc *runtime.Location, base Partitioned[T], accept func(i int64, x T) bool) Filtered[T] {
	var local []int64
	for _, r := range base.LocalRanges(loc) {
		vals := ReadChunk[T](base, r)
		for k, x := range vals {
			if i := r.Lo + int64(k); accept(i, x) {
				local = append(local, i)
			}
		}
	}
	all := runtime.AllGatherT(loc, local)
	var idx []int64
	for _, part := range all {
		idx = append(idx, part...)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	f := Filtered[T]{Base: base, idx: idx}
	// This location's scan ranges hold consecutive runs of accepted
	// indices, so its view positions are contiguous per scanned range.
	for _, r := range base.LocalRanges(loc) {
		lo := sort.Search(len(idx), func(k int) bool { return idx[k] >= r.Lo })
		hi := sort.Search(len(idx), func(k int) bool { return idx[k] >= r.Hi })
		if p := domain.NewRange1D(int64(lo), int64(hi)); !p.Empty() {
			f.mine = append(f.mine, p)
		}
	}
	return f
}

// Size returns the number of accepted elements.
func (v Filtered[T]) Size() int64 { return int64(len(v.idx)) }

// BaseIndex returns the base index of view element i.
func (v Filtered[T]) BaseIndex(i int64) int64 { return v.idx[i] }

// Get reads accepted element i.
func (v Filtered[T]) Get(i int64) T { return v.Base.Get(v.idx[i]) }

// Set writes through to the base element backing accepted element i.
func (v Filtered[T]) Set(i int64, x T) { v.Base.Set(v.idx[i], x) }

// mapIdxs translates view positions to base indices.
func (v Filtered[T]) mapIdxs(idxs []int64) []int64 {
	out := make([]int64, len(idxs))
	for k, i := range idxs {
		out[k] = v.idx[i]
	}
	return out
}

// GetBulk reads a batch through the base's bulk path.
func (v Filtered[T]) GetBulk(idxs []int64) []T { return ReadBatch[T](v.Base, v.mapIdxs(idxs)) }

// SetBulk writes a batch through the base's bulk path.
func (v Filtered[T]) SetBulk(idxs []int64, vals []T) { WriteBatch[T](v.Base, v.mapIdxs(idxs), vals) }

// LocalRanges assigns each location the view positions of the elements its
// scan accepted, which tiles the filtered domain exactly once.
func (v Filtered[T]) LocalRanges(loc *runtime.Location) []domain.Range1D {
	return append([]domain.Range1D(nil), v.mine...)
}

// LocalSpans maps the base's local spans into view positions.
func (v Filtered[T]) LocalSpans(loc *runtime.Location) []domain.Range1D {
	src, ok := v.Base.(LocalitySource)
	if !ok {
		return nil
	}
	var out []domain.Range1D
	for _, s := range src.LocalSpans(loc) {
		lo := sort.Search(len(v.idx), func(k int) bool { return v.idx[k] >= s.Lo })
		hi := sort.Search(len(v.idx), func(k int) bool { return v.idx[k] >= s.Hi })
		if p := domain.NewRange1D(int64(lo), int64(hi)); !p.Empty() {
			out = append(out, p)
		}
	}
	return out
}

var (
	_ Partitioned[Pair[int, string]] = Zip2[int, string]{}
	_ BulkAccess[Pair[int, string]]  = Zip2[int, string]{}
	_ LocalitySource                 = Zip2[int, string]{}

	_ Partitioned[int]  = Subrange[int]{}
	_ BulkAccess[int]   = Subrange[int]{}
	_ LocalitySource    = Subrange[int]{}
	_ DirectAccess[int] = Subrange[int]{}

	_ Partitioned[int]  = Segmented[int]{}
	_ BulkAccess[int]   = Segmented[int]{}
	_ LocalitySource    = Segmented[int]{}
	_ DirectAccess[int] = Segmented[int]{}

	_ Partitioned[int] = Filtered[int]{}
	_ BulkAccess[int]  = Filtered[int]{}
	_ LocalitySource   = Filtered[int]{}
)
