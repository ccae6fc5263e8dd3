package main

import (
	"math"

	"repro/internal/containers/parray"
	"repro/internal/containers/pmatrix"
	"repro/internal/containers/pvector"
	"repro/internal/domain"
	"repro/internal/palgo"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/views"
)

// coarse-kernels: a collective sweep of bulk and coarsened operations.  The
// work is done by core's bulk grouping, views.Coarsen, palgo, the base
// containers and core/redistribute; per-element RMIs are about zero, so the
// sync round trip and the aggregation buffer that elem-* stress are bypassed.

// Frozen phase constants (see workload_elem.go).  The dense matrix is 0.8 MB
// and no kernel's data exceeds 1 MB, so a sweep runs out of the core's own
// 2 MB cache.  With the issue's 1000 x 1000 matrix (8 MB, streamed from the
// host's shared cache or memory every sweep) the workload sat in one of two
// states 1.26x apart for minutes at a time -- ten consecutive 20 s runs read
// 163, 158 and then eight times 127-131 M elements/s, each within 1 % of its
// state -- while the cache-resident workloads run between them did not move.
const (
	coarseTransformN = 32768 // elements of the skew-partitioned pArray
	coarseMatrixSide = 320   // MatVec / SpMV: 320 x 320
	coarseSpStride   = 100   // SpMV: every 100th cell is non-zero (1 % density)
	coarseSortN      = 4096
	coarseJacobiN    = 16384
	coarseJacobiIter = 4
	coarseRedistN    = 4096
	// coarseSteps is how many rounds make a sweep: round r runs step r % coarseSteps.
	coarseSteps = 9
)

const (
	coarseCells = coarseMatrixSide * coarseMatrixSide
	coarseNNZ   = coarseCells / coarseSpStride
	// One operation = one element processed; this is one sweep.
	coarseOps = 2*2*bulkChunk + 2*coarseTransformN + coarseCells + coarseNNZ +
		coarseSortN + coarseJacobiN*coarseJacobiIter + 2*coarseRedistN
)

var (
	kCoarsen      = newKind("views.Coarsen", "views", "views.coarsen_us", 1e3)
	kTransform    = newKind("palgo.TransformInPlace", "palgo", "palgo.transform_ns_per_elem", 1)
	kAccumulate   = newKind("palgo.Accumulate", "palgo", "palgo.accumulate_ns_per_elem", 1)
	kMatVec       = newKind("palgo.MatVec", "palgo", "palgo.matvec_ns_per_cell", 1)
	kSpMV         = newKind("palgo.SpMV", "palgo", "palgo.spmv_ns_per_nnz", 1)
	kSampleSort   = newKind("palgo.SampleSort", "palgo", "palgo.samplesort_ns_per_elem", 1)
	kJacobi       = newKind("palgo.Jacobi1D", "palgo", "palgo.jacobi1d_ns_per_cell", 1)
	kRedistribute = newKind("parray.Redistribute", "core", "core.redistribute.ns_per_elem", 1)
	kScramble     = newKind("parray.UpdateLocal (re-initialise)", "containers", "", 0)
)

// skewedSizes gives location 0 three quarters of n and splits the rest.
func skewedSizes(n int64, p int) []int64 {
	sizes := make([]int64, p)
	each := n / 4 / int64(p-1)
	sizes[0] = n - each*int64(p-1)
	for i := 1; i < p; i++ {
		sizes[i] = each
	}
	return sizes
}

// sortValue scrambles the array the same way every round: what sample sort
// ships where depends on the values, and counts per operation must repeat.
func sortValue(gid int64) int64 { return (gid*2654435761 + 12345) % coarseSortN }

func jacobiInit(gid int64) float64 { return float64(gid % 17) }

func spMember(r, c int64) bool { return (r*coarseMatrixSide+c)%coarseSpStride == 0 }

type coarse struct {
	e *env

	bulkArr  *parray.Array[int64]
	bulkIdx  []int64
	bulkVals [2][]int64

	tArr  *parray.Array[int64]
	tView views.Balanced[int64]
	done  int // rounds run so far: every round adds 1 to every element of tArr
	// firstSum is the sum of tArr as populated.
	firstSum int64

	dense  *pmatrix.Matrix[int64]
	sparse *pmatrix.SparseMatrix[int64]
	x, y   *pvector.Vector[int64]
	ys     *pvector.Vector[int64]
	// Sequential references of y = A·x, dense and sparse.
	yRef, ysRef []int64

	sortArr *parray.Array[int64]

	jCur, jNext *parray.Array[float64]
	jRef        []float64

	rArr           *parray.Array[int64]
	balanced, skew partition.Indexed
	mapper         partition.Mapper
}

func buildCoarse(loc *runtime.Location, e *env) instance {
	w := &coarse{e: e}
	p := loc.NumLocations()
	id := loc.ID()

	w.bulkArr = parray.New[int64](loc, int64(p)*elemPerLoc)
	other := int64((id + 1) % p)
	w.bulkIdx = indexRange(other*elemPerLoc, other*elemPerLoc+bulkChunk)
	w.bulkVals[0] = make([]int64, bulkChunk)
	w.bulkVals[1] = make([]int64, bulkChunk)

	skew, err := partition.NewExplicit(domain.NewRange1D(0, coarseTransformN), skewedSizes(coarseTransformN, p))
	if err != nil {
		panic(err)
	}
	w.tArr = parray.New[int64](loc, coarseTransformN,
		parray.WithPartition(skew), parray.WithMapper(partition.NewBlockedMapper(p, p)))
	w.tArr.UpdateLocal(func(gid int64, _ int64) int64 { return elemValue(gid) })
	w.tView = views.NewBalanced[int64](views.NewArrayNative(w.tArr))
	for i := int64(0); i < coarseTransformN; i++ {
		w.firstSum += elemValue(i)
	}

	const dv = coarseMatrixSide
	w.dense = pmatrix.New[int64](loc, dv, dv)
	w.dense.UpdateLocal(func(g domain.Index2D, _ int64) int64 { return (g.Row+g.Col)%7 + 1 })
	w.sparse = pmatrix.NewSparse[int64](loc, dv, dv)
	rs, cs := w.sparse.LocalBlocks()
	for b := range rs {
		for r := rs[b].Lo; r < rs[b].Hi; r++ {
			for c := cs[b].Lo; c < cs[b].Hi; c++ {
				if spMember(r, c) {
					w.sparse.SetLocal(r, c, r+2*c+1)
				}
			}
		}
	}
	w.x = pvector.New[int64](loc, dv)
	w.x.LocalUpdate(func(gid int64, _ int64) int64 { return gid%5 + 1 })
	w.y = pvector.New[int64](loc, dv)
	w.ys = pvector.New[int64](loc, dv)
	w.yRef, w.ysRef = make([]int64, dv), make([]int64, dv)
	for r := int64(0); r < dv; r++ {
		for c := int64(0); c < dv; c++ {
			xc := c%5 + 1
			w.yRef[r] += ((r+c)%7 + 1) * xc
			if spMember(r, c) {
				w.ysRef[r] += (r + 2*c + 1) * xc
			}
		}
	}

	w.sortArr = parray.New[int64](loc, coarseSortN)

	w.jCur = parray.New[float64](loc, coarseJacobiN)
	w.jNext = parray.New[float64](loc, coarseJacobiN)
	a, b := make([]float64, coarseJacobiN), make([]float64, coarseJacobiN)
	for i := range a {
		a[i] = jacobiInit(int64(i))
	}
	for it := 0; it < coarseJacobiIter; it++ {
		b[0], b[len(b)-1] = a[0], a[len(a)-1]
		for i := 1; i < len(a)-1; i++ {
			b[i] = 0.5 * (a[i-1] + a[i+1])
		}
		a, b = b, a
	}
	w.jRef = a

	w.rArr = parray.New[int64](loc, coarseRedistN)
	w.rArr.UpdateLocal(func(gid int64, _ int64) int64 { return elemValue(gid) })
	rdom := domain.NewRange1D(0, coarseRedistN)
	w.balanced = partition.NewBalanced(rdom, p)
	if w.skew, err = partition.NewExplicit(rdom, skewedSizes(coarseRedistN, p)); err != nil {
		panic(err)
	}
	w.mapper = partition.NewBlockedMapper(p, p)
	loc.Fence()
	return w
}

// round runs step r % coarseSteps of sweep r / coarseSteps.  Every step is
// collective; the harness closes it with a barrier and takes its time at
// location 0 as a latency sample.
func (w *coarse) round(loc *runtime.Location, r int, rec *recorder) {
	n := r / coarseSteps // sweeps before this one
	switch r % coarseSteps {
	case 0:
		// Bulk: write then read back a 1024-index chunk of the other location.
		vals := w.bulkVals[n%2]
		for i := range vals {
			vals[i] = int64(i) + int64(n)<<20 + int64(loc.ID())
		}
		sp := rec.begin(kArrSetBulk, bulkChunk)
		w.bulkArr.SetBulk(w.bulkIdx, vals)
		rec.end(sp)
		sp = rec.begin(kArrGetBulk, bulkChunk)
		got := w.bulkArr.GetBulk(w.bulkIdx)
		rec.end(sp)
		var bad int64
		for i, v := range got {
			if v != vals[i] {
				bad++
			}
		}
		w.e.checkN(bulkChunk, bad, "coarse-kernels bulk read-back")
	case 1:
		// Coarsened traversal of a balanced view over a skewed array: location
		// 1's balanced share is half remote.
		sp := rec.begin(kCoarsen, 1)
		chunks := views.Coarsen[int64](loc, w.tView)
		rec.end(sp)
		if loc.ID() == 1 && n == 0 {
			var native, all int64
			for _, c := range chunks {
				all += c.Range.Size()
				if c.Kind == views.ChunkNative {
					native += c.Range.Size()
				}
			}
			w.e.setCounter("views.chunks", float64(len(chunks)))
			w.e.setCounter("views.native_share", float64(native)/float64(all))
		}
		sp = rec.begin(kTransform, coarseTransformN)
		palgo.TransformInPlace(loc, w.tView, func(_ int64, x int64) int64 { return x + 1 })
		rec.end(sp)
		w.done++
		sp = rec.begin(kAccumulate, coarseTransformN)
		sum := palgo.Accumulate(loc, w.tView, 0, func(a, b int64) int64 { return a + b })
		rec.end(sp)
		if loc.ID() == 0 {
			w.e.check(sum == w.transformSum(), "transform: sum %d, want %d", sum, w.transformSum())
		}
	case 2:
		sp := rec.begin(kMatVec, coarseCells)
		palgo.MatVec[int64](loc, w.dense, w.x, w.y)
		rec.end(sp)
	case 3:
		sp := rec.begin(kSpMV, coarseNNZ)
		palgo.SpMV[int64](loc, w.sparse, w.x, w.ys)
		rec.end(sp)
	case 4:
		// Not a kernel: puts back what sample sort and Jacobi consume.
		sp := rec.begin(kScramble, 1)
		w.sortArr.UpdateLocal(func(gid int64, _ int64) int64 { return sortValue(gid) })
		w.jCur.UpdateLocal(func(gid int64, _ float64) float64 { return jacobiInit(gid) })
		rec.end(sp)
		f := rec.begin(kFence, 1)
		loc.Fence()
		rec.end(f)
	case 5:
		sp := rec.begin(kSampleSort, coarseSortN)
		palgo.SampleSort(loc, w.sortArr, func(a, b int64) bool { return a < b })
		rec.end(sp)
	case 6:
		sp := rec.begin(kJacobi, coarseJacobiN*coarseJacobiIter)
		palgo.Jacobi1D(loc, views.NewArrayNative(w.jCur), views.NewArrayNative(w.jNext), coarseJacobiIter)
		rec.end(sp)
	case 7:
		w.redistribute(loc, n, w.skew, rec)
	case 8:
		w.redistribute(loc, n, w.balanced, rec)
	}
}

// redistribute moves rArr to the partition to; in sweep 0, a warm-up sweep,
// two extra barriers bracket a counter read that belongs to the move alone,
// and the two moves' counts are added up.
func (w *coarse) redistribute(loc *runtime.Location, n int, to partition.Indexed, rec *recorder) {
	var before runtime.Stats
	if n == 0 {
		loc.Barrier()
		before = loc.Machine().Stats()
		loc.Barrier()
	}
	sp := rec.begin(kRedistribute, coarseRedistN)
	w.rArr.Redistribute(to, w.mapper)
	rec.end(sp)
	if n == 0 {
		loc.Barrier()
		if loc.ID() == 0 {
			d := loc.Machine().Stats().Sub(before)
			w.e.addCounter("redist.bytes", float64(d.BytesSimulated))
			w.e.addCounter("redist.msgs", float64(d.MessagesSent))
		}
	}
}

func (w *coarse) transformSum() int64 { return w.firstSum + int64(w.done)*coarseTransformN }

// verify compares every kernel's output with its sequential reference.
func (w *coarse) verify(loc *runtime.Location, _ int) {
	var bad int64
	w.tArr.RangeLocal(func(gid int64, v int64) bool {
		if v != elemValue(gid)+int64(w.done) {
			bad++
		}
		return true
	})
	w.e.checkN(w.tArr.LocalSize(), bad, "transform element")

	bad = 0
	w.y.LocalRange(func(gid int64, v int64) bool {
		if v != w.yRef[gid] {
			bad++
		}
		return true
	})
	w.ys.LocalRange(func(gid int64, v int64) bool {
		if v != w.ysRef[gid] {
			bad++
		}
		return true
	})
	w.e.checkN(2*w.y.LocalSize(), bad, "y = A·x")

	sorted := palgo.IsSorted(loc, views.NewArrayNative(w.sortArr), func(a, b int64) bool { return a < b })
	sum := palgo.Accumulate(loc, views.NewArrayNative(w.sortArr), 0, func(a, b int64) int64 { return a + b })
	var want int64
	for g := int64(0); g < coarseSortN; g++ {
		want += sortValue(g)
	}
	if loc.ID() == 0 {
		w.e.check(sorted, "sample sort left the array unsorted")
		w.e.check(sum == want, "sample sort changed the multiset: sum %d, want %d", sum, want)
	}

	bad = 0
	result := w.jCur // an even iteration count ends in cur
	result.RangeLocal(func(gid int64, v float64) bool {
		if math.Abs(v-w.jRef[gid]) > 1e-12 {
			bad++
		}
		return true
	})
	w.e.checkN(result.LocalSize(), bad, "jacobi cell")

	bad = 0
	w.rArr.RangeLocal(func(gid int64, v int64) bool {
		if v != elemValue(gid) {
			bad++
		}
		return true
	})
	w.e.checkN(w.rArr.LocalSize(), bad, "redistributed element")
	w.e.check(w.rArr.LocalSize() == coarseRedistN/int64(loc.NumLocations()),
		"location %d holds %d elements after balanced->skewed->balanced", loc.ID(), w.rArr.LocalSize())
}
