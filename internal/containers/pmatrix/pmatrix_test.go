package pmatrix

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/domain"
	"repro/internal/partition"
	"repro/internal/runtime"
)

func run(p int, fn func(loc *runtime.Location)) {
	runtime.NewMachine(p, runtime.DefaultConfig()).Execute(fn)
}

func TestMatrixConstructionAndAccess(t *testing.T) {
	run(4, func(loc *runtime.Location) {
		m := New[float64](loc, 8, 6)
		if m.Rows() != 8 || m.Cols() != 6 || m.Size() != 48 {
			t.Errorf("dims wrong: %dx%d", m.Rows(), m.Cols())
		}
		loc.Barrier()
		if loc.ID() == 0 {
			for r := int64(0); r < 8; r++ {
				for c := int64(0); c < 6; c++ {
					m.Set(r, c, float64(r*10+c))
				}
			}
		}
		loc.Fence()
		for r := int64(0); r < 8; r++ {
			for c := int64(0); c < 6; c++ {
				if got := m.Get(r, c); got != float64(r*10+c) {
					t.Errorf("(%d,%d) = %v", r, c, got)
					return
				}
			}
		}
		if f := m.GetSplit(7, 5); f.Get() != 75 {
			t.Errorf("split get = %v", f.Get())
		}
		// All locations must finish the read-only checks before any of them
		// starts mutating (0,0).
		loc.Barrier()
		m.Apply(0, 0, func(x float64) float64 { return x + 1 })
		loc.Fence()
		if got := m.Get(0, 0); got != float64(loc.NumLocations()) {
			t.Errorf("after %d applies (0,0) = %v", loc.NumLocations(), got)
		}
		loc.Fence()
	})
}

func TestMatrixLayouts(t *testing.T) {
	for _, layout := range []partition.MatrixLayout{partition.RowBlocked, partition.ColBlocked, partition.Checkerboard} {
		layout := layout
		run(4, func(loc *runtime.Location) {
			m := New[int](loc, 12, 12, WithLayout(layout))
			loc.Barrier()
			if loc.ID() == 0 {
				for r := int64(0); r < 12; r++ {
					for c := int64(0); c < 12; c++ {
						m.Set(r, c, int(r*12+c))
					}
				}
			}
			loc.Fence()
			// Sample a few entries from every location.
			for _, rc := range [][2]int64{{0, 0}, {11, 11}, {5, 7}, {7, 5}} {
				if got := m.Get(rc[0], rc[1]); got != int(rc[0]*12+rc[1]) {
					t.Errorf("layout %v: (%d,%d) = %d", layout, rc[0], rc[1], got)
				}
			}
			// Every element is stored on exactly one location.
			var localCount int64
			m.RangeLocal(func(domainIdx domain.Index2D, _ int) bool { localCount++; return true })
			if total := runtime.AllReduceSum(loc, localCount); total != 144 {
				t.Errorf("layout %v: total stored elements = %d", layout, total)
			}
			loc.Fence()
		})
	}
}

func TestMatrixLocalRowRange(t *testing.T) {
	run(2, func(loc *runtime.Location) {
		m := New[int](loc, 6, 4)
		m.UpdateLocal(func(g domain.Index2D, _ int) int { return int(g.Row) })
		loc.Fence()
		rowsSeen := map[int64]int{}
		m.LocalRowRange(func(row int64, colStart int64, vals []int) {
			rowsSeen[row] += len(vals)
			for _, v := range vals {
				if v != int(row) {
					t.Errorf("row %d has value %d", row, v)
				}
			}
			if colStart != 0 {
				t.Errorf("row-blocked layout should give full rows, colStart=%d", colStart)
			}
		})
		// Row-blocked over 2 locations: each location holds 3 full rows.
		if len(rowsSeen) != 3 {
			t.Errorf("local rows = %v", rowsSeen)
		}
		for r, n := range rowsSeen {
			if n != 4 {
				t.Errorf("row %d has %d cols", r, n)
			}
		}
		rows, cols := m.LocalBlocks()
		if len(rows) != 1 || rows[0].Size() != 3 || cols[0].Size() != 4 {
			t.Errorf("local blocks = %v x %v", rows, cols)
		}
		loc.Fence()
	})
}

// TestMatrixOutOfDomainFailsFast is the regression test for the 2-D
// resolution bug: partition.Matrix.Find used to return Forward(0) for
// out-of-domain indices, so an out-of-bounds Get/Set/Apply issued from
// location 0 self-forwarded (and from any other location shipped an RMI that
// blew up on location 0's server goroutine) instead of failing fast at the
// caller.  Every location must now observe a clear resolver panic on its own
// goroutine, exactly like pList's invalid-GID path.
func TestMatrixOutOfDomainFailsFast(t *testing.T) {
	run(4, func(loc *runtime.Location) {
		m := New[int](loc, 6, 4, WithLayout(partition.Checkerboard))
		expectPanic := func(name string, fn func()) {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("loc %d: %s outside the domain did not panic", loc.ID(), name)
					return
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "outside") {
					t.Errorf("loc %d: %s panicked with %q, want a clear out-of-domain message", loc.ID(), name, msg)
				}
			}()
			fn()
		}
		expectPanic("Get", func() { m.Get(6, 0) })
		expectPanic("Set", func() { m.Set(0, 4, 1) })
		expectPanic("Apply", func() { m.Apply(-1, 0, func(x int) int { return x }) })
		expectPanic("GetBulk", func() { m.GetBulk([]domain.Index2D{{Row: 0, Col: 0}, {Row: 99, Col: 99}}) })
		// In-domain accesses still work after the recovered panics: the
		// resolver releases the metadata read bracket by defer and the data
		// bracket was never entered, so neither a write (data lock,
		// exclusive) nor a relayout (metadata lock, exclusive) blocks.
		m.Set(0, 0, 7+loc.ID())
		loc.Fence()
		if got := m.Get(0, 0); got < 7 {
			t.Errorf("in-domain access after panic = %d", got)
		}
		loc.Fence()
		m.Relayout(partition.RowBlocked, loc.NumLocations())
		if got := m.Get(0, 0); got < 7 {
			t.Errorf("element after the post-recovery relayout = %d", got)
		}
		loc.Fence()
	})
}

func TestMatrixExplicitBlocksAndMemory(t *testing.T) {
	run(2, func(loc *runtime.Location) {
		m := New[int64](loc, 10, 10, WithBlocks(4), WithLayout(partition.Checkerboard))
		if m.Partition().NumSubdomains() != 4 {
			t.Errorf("blocks = %d", m.Partition().NumSubdomains())
		}
		mu := m.MemorySize()
		if mu.Data != 800 {
			t.Errorf("data bytes = %d, want 800", mu.Data)
		}
		if m.Domain().Size() != 100 {
			t.Error("domain wrong")
		}
		loc.Fence()
	})
}
