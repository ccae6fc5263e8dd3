package views

import (
	"sort"

	"repro/internal/domain"
	"repro/internal/runtime"
)

// This file implements the coarsening pass of the pView algebra: the step
// that turns an arbitrarily composed view into per-location work the
// runtime can execute at container speed.  A view describes WHAT to access
// (domain + mapping function); Coarsen decides HOW: which index runs of the
// calling location's share sit in its own memory (and can be walked through
// a raw storage segment, approaching native array speed) and which form the
// remote remainder that must be serviced through the bulk element path
// (one sized RMI per chunk per owning location instead of one request per
// element).  pAlgorithms iterate LocalChunks instead of hand-rolling their
// own chunk loops.

// LocalitySource is implemented by views that can report which parts of
// their index domain resolve to the calling location's memory.  The spans
// are in VIEW index space (after any re-indexing the view applies) and must
// be disjoint; they need not be sorted.  Composed views derive their spans
// from their constituents: a Zip is local where every constituent is local,
// a Strided view maps its base's spans through the stride, and so on.
//
// A view without a LocalitySource is treated as having no local spans: its
// whole share coarsens into bulk chunks, which is always correct (the bulk
// path short-circuits locally owned elements) just not as fast.
type LocalitySource interface {
	LocalSpans(loc *runtime.Location) []domain.Range1D
}

// DirectAccess is implemented by views that can expose the raw local
// storage backing a run of view indices.  LocalSegment returns the backing
// slice for view indices [r.Lo, r.Hi) — element k of the returned slice is
// view element r.Lo+k — and ok=false when the run is not backed by one
// contiguous piece of this location's memory.
//
// Algorithms may only request segments inside their own work decomposition
// (LocalRanges) and must separate phases that touch the same elements with
// fences, exactly the discipline the paper's native views demand; the
// segment bypasses the container's per-access locking in exchange for
// raw-slice speed.
type DirectAccess[T any] interface {
	LocalSegment(r domain.Range1D) ([]T, bool)
}

// ChunkKind classifies a coarsened chunk by its cheapest access path.
type ChunkKind int

const (
	// ChunkNative marks a run whose elements all live in the calling
	// location's memory: algorithms walk it through LocalSegment when the
	// view offers one, or through the (message-free) local bulk path.
	ChunkNative ChunkKind = iota
	// ChunkBulk marks the remote remainder: the run is serviced through
	// BulkAccess, one grouped request per owning location per batch.
	ChunkBulk
)

// LocalChunk is one contiguous run of view indices produced by Coarsen,
// tagged with the access path the composition allows for it.
type LocalChunk struct {
	Range domain.Range1D
	Kind  ChunkKind
}

// localSpansOf returns the view's local spans, sorted and merged, or nil
// when the view does not expose locality information.
func localSpansOf(v any, loc *runtime.Location) []domain.Range1D {
	src, ok := v.(LocalitySource)
	if !ok {
		return nil
	}
	spans := append([]domain.Range1D(nil), src.LocalSpans(loc)...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Lo < spans[j].Lo })
	// Merge touching spans so the classification below emits maximal runs.
	out := spans[:0]
	for _, s := range spans {
		if s.Empty() {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Hi >= s.Lo {
			if s.Hi > out[n-1].Hi {
				out[n-1].Hi = s.Hi
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// Coarsen partitions the calling location's share of the view (its
// LocalRanges) into native chunks — runs stored in this location's memory —
// plus the remote remainder as bulk chunks.  The chunks cover the share
// exactly once, in ascending index order within each range.
func Coarsen[T any](loc *runtime.Location, v Partitioned[T]) []LocalChunk {
	ranges := v.LocalRanges(loc)
	if len(ranges) == 0 {
		return nil
	}
	spans := localSpansOf(v, loc)
	var out []LocalChunk
	for _, r := range ranges {
		out = appendClassified(out, r, spans)
	}
	return out
}

// appendClassified splits r against the sorted local spans, appending
// native chunks for overlaps and bulk chunks for the gaps.
func appendClassified(out []LocalChunk, r domain.Range1D, spans []domain.Range1D) []LocalChunk {
	cur := r.Lo
	// Skip spans entirely before r.
	i := sort.Search(len(spans), func(k int) bool { return spans[k].Hi > r.Lo })
	for ; i < len(spans) && spans[i].Lo < r.Hi; i++ {
		ov := r.Intersect(spans[i])
		if ov.Empty() {
			continue
		}
		if cur < ov.Lo {
			out = append(out, LocalChunk{Range: domain.NewRange1D(cur, ov.Lo), Kind: ChunkBulk})
		}
		out = append(out, LocalChunk{Range: ov, Kind: ChunkNative})
		cur = ov.Hi
	}
	if cur < r.Hi {
		out = append(out, LocalChunk{Range: domain.NewRange1D(cur, r.Hi), Kind: ChunkBulk})
	}
	return out
}

// iota64 returns a fresh slice of the consecutive indices [lo, hi).
func iota64(lo, hi int64) []int64 {
	out := make([]int64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// ReadChunk reads the view elements [r.Lo, r.Hi) into a fresh slice, using
// the view's bulk path when it has one.  Bulk gets are synchronous, so the
// index slice is not retained past the call.
func ReadChunk[T any](v RandomAccess[T], r domain.Range1D) []T {
	if b, ok := any(v).(BulkAccess[T]); ok {
		return b.GetBulk(iota64(r.Lo, r.Hi))
	}
	out := make([]T, 0, r.Size())
	for i := r.Lo; i < r.Hi; i++ {
		out = append(out, v.Get(i))
	}
	return out
}

// WriteChunk writes vals to the view elements [r.Lo, r.Hi), using the
// view's bulk path when it has one.  Bulk sets are asynchronous but copy
// what they ship: vals is the caller's again when the call returns.
func WriteChunk[T any](v RandomAccess[T], r domain.Range1D, vals []T) {
	if b, ok := any(v).(BulkAccess[T]); ok {
		b.SetBulk(iota64(r.Lo, r.Hi), vals)
		return
	}
	for k, i := 0, r.Lo; i < r.Hi; k, i = k+1, i+1 {
		v.Set(i, vals[k])
	}
}

// Segment returns the raw local storage backing [r.Lo, r.Hi) when the view
// exposes it, and ok=false otherwise.
func Segment[T any](v RandomAccess[T], r domain.Range1D) ([]T, bool) {
	if d, ok := any(v).(DirectAccess[T]); ok {
		return d.LocalSegment(r)
	}
	return nil, false
}

// WriteRange writes vals (one value per index of [r.Lo, r.Hi)) into the
// view, coarsening the range first: runs backed by local storage are copied
// directly, the remainder goes through the bulk path in one grouped write
// per run.  Like WriteChunk it does not retain vals.
func WriteRange[T any](loc *runtime.Location, v Partitioned[T], r domain.Range1D, vals []T) {
	if r.Empty() {
		return
	}
	spans := localSpansOf(any(v), loc)
	for _, c := range appendClassified(nil, r, spans) {
		part := vals[c.Range.Lo-r.Lo : c.Range.Hi-r.Lo]
		if c.Kind == ChunkNative {
			if seg, ok := Segment[T](v, c.Range); ok {
				copy(seg, part)
				continue
			}
		}
		WriteChunk[T](v, c.Range, part)
	}
}
