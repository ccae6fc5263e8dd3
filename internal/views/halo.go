package views

import (
	"repro/internal/domain"
	"repro/internal/runtime"
)

// This file implements the stencil face of the overlap view: coarsened halo
// exchange.  Where the windowed Overlap view hands algorithms one window at
// a time (one GetWindow per window, each a fresh traversal), ExchangeHalo
// materialises a location's whole share plus its boundary cells in one pass:
// the interior comes straight out of local storage (or the message-free
// local bulk path) and the halo cells owned by other locations travel as
// ONE grouped bulk request per neighbouring owner — AsyncRMIBulk underneath
// — instead of one RMI per boundary element.

// HaloChunk is one contiguous piece of the calling location's share of a
// view, materialised together with its left/right halo cells.
type HaloChunk[T any] struct {
	// Core is the range of view indices this chunk owns (a work range of
	// the underlying decomposition).
	Core domain.Range1D
	// Lo is the view index of Data[0]: max(0, Core.Lo-left).  The halo is
	// clamped at the domain boundary, so Data covers
	// [Lo, min(size, Core.Hi+right)).
	Lo int64
	// Data holds the materialised elements.  At(i) indexes it by view
	// index.
	Data []T
}

// At returns the materialised element at view index i; i must lie inside
// the chunk's clamped halo window.  Pointer receiver: stencil loops call it
// several times a cell, and a value receiver copies the descriptor each time.
func (c *HaloChunk[T]) At(i int64) T { return c.Data[i-c.Lo] }

// ExchangeHalo materialises the calling location's share of the view with
// left/right halo cells of the given widths (clamped at the domain
// boundary).  Native runs are copied from local storage; everything else —
// including the remote halo cells — is fetched through the view's bulk
// path, grouped per owning location.  Collective in the sense that every
// location typically calls it once per stencil step; it contains no global
// synchronisation of its own.
func ExchangeHalo[T any](loc *runtime.Location, v Partitioned[T], left, right int64) []HaloChunk[T] {
	return ExchangeHaloInto(loc, v, left, right, nil)
}

// ExchangeHaloInto is ExchangeHalo with buffer reuse: the Data slices of
// reuse (a previous call's result) are recycled when their sizes still fit,
// so iterative stencils allocate their halo windows once instead of once
// per sweep.  The reuse slice must no longer be in use.
func ExchangeHaloInto[T any](loc *runtime.Location, v Partitioned[T], left, right int64, reuse []HaloChunk[T]) []HaloChunk[T] {
	if left < 0 {
		left = 0
	}
	if right < 0 {
		right = 0
	}
	n := v.Size()
	spans := localSpansOf(v, loc)
	var out []HaloChunk[T]
	for _, core := range v.LocalRanges(loc) {
		if core.Empty() {
			continue
		}
		lo := core.Lo - left
		if lo < 0 {
			lo = 0
		}
		hi := core.Hi + right
		if hi > n {
			hi = n
		}
		ext := domain.NewRange1D(lo, hi)
		var buf []T
		if k := len(out); k < len(reuse) && int64(cap(reuse[k].Data)) >= ext.Size() {
			buf = reuse[k].Data[:ext.Size()]
		} else {
			buf = make([]T, ext.Size())
		}
		chunk := HaloChunk[T]{Core: core, Lo: lo, Data: buf}
		for _, c := range appendClassified(nil, ext, spans) {
			dst := chunk.Data[c.Range.Lo-lo : c.Range.Hi-lo]
			if c.Kind == ChunkNative {
				if seg, ok := Segment[T](v, c.Range); ok {
					copy(dst, seg)
					continue
				}
			}
			copy(dst, ReadChunk[T](v, c.Range))
		}
		out = append(out, chunk)
	}
	return out
}
