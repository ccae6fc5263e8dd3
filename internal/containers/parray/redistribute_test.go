package parray

import (
	"testing"

	"repro/internal/domain"
	"repro/internal/partition"
	"repro/internal/runtime"
)

func TestArrayRedistributeEmpty(t *testing.T) {
	run(4, func(loc *runtime.Location) {
		pa := New[int](loc, 0)
		pa.Rebalance()
		if got := pa.GlobalSize(); got != 0 {
			t.Errorf("global size = %d, want 0", got)
		}
		loc.Fence()
	})
}

func TestArrayRedistributeSingleLocation(t *testing.T) {
	const n = 30
	run(1, func(loc *runtime.Location) {
		pa := New[int](loc, n)
		for i := int64(0); i < n; i++ {
			pa.Set(i, int(i)*2)
		}
		loc.Fence()
		part := partition.NewBlocked(domain.NewRange1D(0, n), 7)
		pa.Redistribute(part, partition.NewBlockedMapper(part.NumSubdomains(), 1))
		for i := int64(0); i < n; i++ {
			if got := pa.Get(i); got != int(i)*2 {
				t.Errorf("element %d = %d, want %d", i, got, int(i)*2)
				return
			}
		}
		loc.Fence()
	})
}

func TestArrayRedistributeIdentityNoTraffic(t *testing.T) {
	const n = 96
	m := runtime.NewMachine(4, runtime.DefaultConfig())
	m.Execute(func(loc *runtime.Location) {
		pa := New[int](loc, n)
		loc.Barrier()
		for _, d := range pa.LocalSubdomains() {
			for i := d.Lo; i < d.Hi; i++ {
				pa.Set(i, int(i)+1)
			}
		}
		loc.Fence()
		// An identity repartition keeps every element on its location:
		// the migration must not touch the interconnect at all.
		before := m.Stats().RMIsSent
		pa.Redistribute(pa.Partition(), pa.Mapper())
		after := m.Stats().RMIsSent
		if after != before {
			t.Errorf("identity repartition sent %d RMIs, want 0", after-before)
		}
		// Keep the verification reads out of the stats windows of the
		// other locations.
		loc.Barrier()
		for i := int64(0); i < n; i++ {
			if got := pa.Get(i); got != int(i)+1 {
				t.Errorf("element %d = %d, want %d", i, got, int(i)+1)
				return
			}
		}
		loc.Fence()
	})
}

func TestArraySkewRebalanceRoundTrip(t *testing.T) {
	const n = 200
	run(4, func(loc *runtime.Location) {
		p := loc.NumLocations()
		skew, err := partition.NewExplicit(domain.NewRange1D(0, n), []int64{n - int64(p) + 1, 1, 1, 1})
		if err != nil {
			t.Fatalf("explicit partition: %v", err)
		}
		pa := New[int64](loc, n, WithPartition(skew), WithMapper(partition.NewBlockedMapper(p, p)))
		pa.UpdateLocal(func(gid, _ int64) int64 { return gid * 3 })
		loc.Fence()
		if f := partition.CollectLoad(loc, pa.LocalSize()).Imbalance(); f < 1.5 {
			t.Errorf("skewed start expected, imbalance = %.3f", f)
		}
		pa.Rebalance()
		if f := partition.CollectLoad(loc, pa.LocalSize()).Imbalance(); f > 1.1 {
			t.Errorf("imbalance after rebalance = %.3f, want <= 1.1", f)
		}
		if got := pa.GlobalSize(); got != n {
			t.Errorf("global size = %d, want %d", got, n)
		}
		for i := int64(0); i < n; i++ {
			if got := pa.Get(i); got != i*3 {
				t.Errorf("element %d = %d, want %d", i, got, i*3)
				return
			}
		}
		loc.Fence()
	})
}

// TestArrayLocalPathRacesServerAndRedistribute drives the three parties that
// share one representative: the SPMD goroutine on the local branch (no RMI),
// the location's RMI server applying other locations' writes to the same base
// containers, and Redistribute replacing the registry, its locks and the
// resolver.  Checked elements have one writer per round and are fenced, so
// every value is exact; noise elements are written WITHOUT a fence right
// before each Redistribute, so their requests are resolved while the
// registry and the resolver are being swapped (including the window where the
// metadata still says local and the storage is gone) — their values may be
// lost, the run must survive.  Run under -race.
func TestArrayLocalPathRacesServerAndRedistribute(t *testing.T) {
	const n, checked = 256, 192 // [checked, n) is noise
	run(4, func(loc *runtime.Location) {
		p := loc.NumLocations()
		self := loc.ID()
		a := New[int64](loc, n)
		dom := a.Domain()
		fine := partition.NewBlocked(dom, 8)
		coarse := partition.NewBalanced(dom, p)
		for round := 1; round <= 6; round++ {
			stamp := int64(round) * n
			for i := int64(0); i < checked; i++ {
				if int(i+int64(round))%p == self { // this round's writer of i
					a.Set(i, stamp+i)
				}
				if a.IsLocal(i) { // a local read racing the server's writes
					if got := a.Get(i); got != stamp+i && got != stamp-n+i && got != 0 {
						t.Errorf("loc %d round %d: local read of %d = %d", self, round, i, got)
					}
				}
			}
			loc.Fence()
			for i := int64(0); i < checked; i++ {
				if got := a.Get(i); got != stamp+i {
					t.Errorf("loc %d round %d: element %d = %d, want %d", self, round, i, got, stamp+i)
				}
			}
			loc.Barrier()
			for i := int64(checked); i < n; i++ {
				a.Set(i, 1)
			}
			if round%2 == 1 {
				a.Redistribute(fine, partition.NewCyclicMapper(fine.NumSubdomains(), p))
			} else {
				a.Redistribute(coarse, partition.NewBlockedMapper(coarse.NumSubdomains(), p))
			}
		}
		for i := int64(checked); i < n; i++ {
			if got := a.Get(i); got != 0 && got != 1 {
				t.Errorf("loc %d: noise element %d = %d", self, i, got)
			}
		}
		loc.Fence()
	})
}
