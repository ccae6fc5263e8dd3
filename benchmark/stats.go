package main

import (
	"math"
	"slices"
)

// quantileSorted returns the q-quantile (0 <= q <= 1) of an ascending slice
// by linear interpolation between closest ranks (the "R-7" rule, what
// numpy.quantile defaults to).  It panics on an empty slice: every caller
// sizes its sample set in the source, so "no samples" is a harness bug.
func quantileSorted[T int32 | int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		panic("benchmark: quantile of an empty sample set")
	}
	if q <= 0 {
		return float64(sorted[0])
	}
	if q >= 1 {
		return float64(sorted[len(sorted)-1])
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return float64(sorted[lo])
	}
	return float64(sorted[lo]) + frac*(float64(sorted[lo+1])-float64(sorted[lo]))
}

// quartiles sorts a copy of xs and returns (q1, median, q3) the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" rule: rank q·(n+1)),
// which is what the driver's acceptance procedure computes spreads with; for
// fewer than two values all three are the value.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		pos := q*float64(len(s)+1) - 1
		lo := int(math.Floor(pos))
		switch {
		case lo < 0:
			return s[0]
		case lo+1 >= len(s):
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// median returns the median of xs (xs is not modified).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
