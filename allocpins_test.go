package repro

import (
	"fmt"
	goruntime "runtime"
	"runtime/debug"
	"testing"

	"repro/internal/containers/parray"
	"repro/internal/containers/pgraph"
	"repro/internal/containers/pmatrix"
	"repro/internal/containers/pvector"
	"repro/internal/domain"
	"repro/internal/palgo"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/views"
)

// What a call allocates is a property of the code path, so it is a test and
// not a report: the tables below pin the bulk methods, a directory read and
// the coarsened kernels at an exact count per call, at P = 2 and P = 4, next
// to the element-method pins of localpath_test.go.  A row carries the name of
// the series the timed harness used to report for it (allowing one more
// allocation per element; CHANGES.md, PR 21, has the whole mapping).  Four of
// those series were remote element methods and are the remote rows of
// TestLocalElementMethodsAllocateNothing (0 / 0):
//
//	bulk/get_element (sync)          parray remote read
//	bulk/set_element (elementwise)   parray remote write
//	views/p_for_each (elementwise)   parray remote read and write (a view forwards)
//	matrix/matvec (elementwise)      pmatrix and pvector remote read, pvector remote write
//
// A pin is the integer measured when the row was written; it may fall, and
// the log line shows when it has.

// steadyAllocs makes testing.AllocsPerRun report the code path's own count.
// A collection empties every sync.Pool and the pools' own bookkeeping, and
// how often one runs depends on how much a call allocates; a pool is a cache
// per processor, and which one a location runs on is the scheduler's choice.
// So: collector off, one processor, both restored when the test ends.
func steadyAllocs(t *testing.T) {
	t.Helper()
	if raceDetector {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is handed, at random")
	}
	gc, procs := debug.SetGCPercent(-1), goruntime.GOMAXPROCS(1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		goruntime.GOMAXPROCS(procs)
	})
}

// allocPin is one row: build is collective and returns this location's call.
type allocPin struct {
	series string
	pins   map[int]float64 // by machine size
	build  func(loc *runtime.Location) func()
}

// run builds the row on a p-location in-process machine and measures
// location 0's call.  In a collective row every other location makes the same
// runs+1 calls AllocsPerRun makes (it warms up with one); otherwise they only
// serve.
func (r allocPin) run(t *testing.T, p, runs int, collective bool) {
	t.Run(fmt.Sprintf("%s/P=%d", r.series, p), func(t *testing.T) {
		cfg := runtime.DefaultConfig()
		cfg.Transport = runtime.InprocTransport
		runtime.NewMachine(p, cfg).Execute(func(loc *runtime.Location) {
			call := r.build(loc)
			loc.Fence()
			switch {
			case loc.ID() == 0:
				got := testing.AllocsPerRun(runs, call)
				t.Logf("%v allocations per call, pinned at %v", got, r.pins[p])
				if got > r.pins[p] {
					t.Errorf("%s at P=%d allocates %v objects per call, pinned at %v", r.series, p, got, r.pins[p])
				}
			case collective:
				for i := 0; i <= runs; i++ {
					call()
				}
			}
			loc.Fence()
		})
	})
}

// TestSingleDriverAllocationPins: location 0 calls, the others serve.
func TestSingleDriverAllocationPins(t *testing.T) {
	steadyAllocs(t)
	const chunk = 1024
	bulk := func(call func(loc *runtime.Location, arr *parray.Array[int64], idxs, vals []int64)) func(*runtime.Location) func() {
		return func(loc *runtime.Location) func() {
			arr := parray.New[int64](loc, int64(loc.NumLocations())*chunk)
			idxs, vals := remoteRun(chunk) // location 1's block
			return func() { call(loc, arr, idxs, vals) }
		}
	}
	// A property read of a vertex that location 1 owns, through the
	// distributed directory.  Where there is a third location the vertex's
	// home is neither the reader nor the owner, so an uncached read is
	// forwarded.
	directory := func(cached bool) func(*runtime.Location) func() {
		return func(loc *runtime.Location) func() {
			g := pgraph.New[int64, int8](loc, 0,
				pgraph.WithStrategy(pgraph.DynamicDirectory),
				pgraph.WithDirectoryCache(cached))
			vds := make([]int64, 64)
			for i := range vds {
				vds[i] = g.AddVertex(int64(i))
			}
			theirs := runtime.AllGatherT(loc, vds)[1]
			vd := theirs[0]
			for _, c := range theirs {
				if h := g.Directory().HomeOf(c); h != 0 && h != 1 {
					vd = c
					break
				}
			}
			return func() {
				v, _ := g.VertexProperty(vd)
				localSink += v
			}
		}
	}
	rows := []allocPin{
		{"bulk/set_bulk", map[int]float64{2: 0, 4: 0}, bulk(func(loc *runtime.Location, arr *parray.Array[int64], idxs, vals []int64) {
			arr.SetBulk(idxs, vals)
			loc.OneSidedFence()
		})},
		{"bulk/get_bulk", map[int]float64{2: 1, 4: 1}, bulk(func(_ *runtime.Location, arr *parray.Array[int64], idxs, _ []int64) {
			localSink += arr.GetBulk(idxs)[0]
		})},
		{"directory/repeat remote reads (cached)", map[int]float64{2: 0, 4: 0}, directory(true)},
		{"directory/repeat remote reads (uncached)", map[int]float64{2: 0, 4: 0}, directory(false)},
	}
	for _, p := range []int{2, 4} {
		for _, r := range rows {
			r.run(t, p, 200, false)
		}
	}
}

// TestCollectiveAllocationPins: every location runs the kernel the same
// number of times, location 0 under AllocsPerRun, whose count is the
// process's — so a pin is what one collective call allocates on all
// locations together.
func TestCollectiveAllocationPins(t *testing.T) {
	steadyAllocs(t)
	const perLoc, runs = 2000, 100
	// vectors returns the side of the square product that has about perLoc
	// cells per location, and its dense operand and result.
	vectors := func(loc *runtime.Location) (dv int64, x, y *pvector.Vector[int64]) {
		for (dv+1)*(dv+1) <= perLoc*int64(loc.NumLocations()) {
			dv++
		}
		x = pvector.New[int64](loc, dv)
		x.LocalUpdate(func(gid int64, _ int64) int64 { return gid%5 + 1 })
		return dv, x, pvector.New[int64](loc, dv)
	}
	rows := []allocPin{
		// Location 0 holds three quarters of the array; the balanced view
		// hands every location an equal share of it.
		{"views/p_for_each (coarsened)", map[int]float64{2: 21, 4: 43}, func(loc *runtime.Location) func() {
			p := loc.NumLocations()
			n := int64(perLoc * p)
			sizes := make([]int64, p)
			sizes[0] = n
			for i := 1; i < p; i++ {
				sizes[i] = n / 4 / int64(p-1)
				sizes[0] -= sizes[i]
			}
			part, err := partition.NewExplicit(domain.NewRange1D(0, n), sizes)
			if err != nil {
				panic(err)
			}
			v := views.NewBalanced[int64](views.NewArrayNative(parray.New[int64](loc, n,
				parray.WithPartition(part), parray.WithMapper(partition.NewBlockedMapper(p, p)))))
			return func() { palgo.TransformInPlace(loc, v, func(_ int64, x int64) int64 { return x + 1 }) }
		}},
		// sparse/matvec (dense) was this kernel over a matrix of mostly zeros.
		{"matrix/matvec (coarsened)", map[int]float64{2: 105, 4: 173}, func(loc *runtime.Location) func() {
			dv, x, y := vectors(loc)
			a := pmatrix.New[int64](loc, dv, dv)
			a.UpdateLocal(func(g domain.Index2D, _ int64) int64 { return (g.Row+g.Col)%7 + 1 })
			return func() { palgo.MatVec[int64](loc, a, x, y) }
		}},
		// One cell in a hundred holds a value.
		{"sparse/matvec (csr spmv)", map[int]float64{2: 50, 4: 102}, func(loc *runtime.Location) func() {
			dv, x, y := vectors(loc)
			a := pmatrix.NewSparse[int64](loc, dv, dv)
			rs, cs := a.LocalBlocks()
			for b := range rs {
				for r := rs[b].Lo; r < rs[b].Hi; r++ {
					for c := cs[b].Lo; c < cs[b].Hi; c++ {
						if (r*dv+c)%100 == 0 {
							a.SetLocal(r, c, r+2*c+1)
						}
					}
				}
			}
			return func() { palgo.SpMV[int64](loc, a, x, y) }
		}},
		// The call scrambles the array again before it sorts it.
		{"samplesort/sample sort", map[int]float64{2: 141, 4: 373}, func(loc *runtime.Location) func() {
			n := int64(perLoc * loc.NumLocations())
			a := parray.New[int64](loc, n)
			return func() {
				a.UpdateLocal(func(gid int64, _ int64) int64 { return (gid*2654435761 + 12345) % n })
				loc.Fence()
				palgo.SampleSort(loc, a, func(x, y int64) bool { return x < y })
			}
		}},
	}
	for _, p := range []int{2, 4} {
		for _, r := range rows {
			r.run(t, p, runs, true)
		}
	}
}
