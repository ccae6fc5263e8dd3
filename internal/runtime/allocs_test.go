package runtime

import "testing"

// TestRMIAllocsPerOp pins the steady-state allocation cost of the RMI hot
// path — the registered-operation entry points every container method
// issues through — with testing.AllocsPerRun, so an accidental
// re-introduction of a per-request allocation (a capturing closure, an
// unpooled request, a fresh response channel) fails the ordinary test suite —
// not just the advisory benchmarks.  A by-reference operation must cost the
// same as a by-value one.  AllocsPerRun reads global memstats, so the
// measured figure includes the serving location's delivery work too; the
// bounds below leave room for that while still catching a per-op regression
// of one whole allocation.  The transport is pinned in-process: a wire
// adapter allocates frames per message, which is not what is pinned here.
func TestRMIAllocsPerOp(t *testing.T) {
	const (
		maxAsyncAllocs = 1.0 // allocs per AsyncRMIOpSized issue+delivery
		maxBulkAllocs  = 2.0 // allocs per AsyncRMIBulkOp destination flush
	)
	cases := []struct {
		name string
		op   OpID
	}{{"by-value", bumpOp}, {"by-reference", bumpRefOp}}
	for _, tc := range cases {
		var asyncAllocs, bulkAllocs float64
		cfg := DefaultConfig()
		cfg.Transport = InprocTransport
		m := NewMachine(2, cfg)
		m.Execute(func(loc *Location) {
			h := loc.RegisterObject(&benchSink{})
			loc.Barrier()
			if loc.ID() == 0 {
				arg := any(int64(1))
				// Warm the request, batch and message pools so the measurement
				// sees the steady state, not pool growth.
				for i := 0; i < 4096; i++ {
					loc.AsyncRMIOpSized(1, h, 0, tc.op, arg)
				}
				loc.OneSidedFence()
				asyncAllocs = testing.AllocsPerRun(4000, func() {
					loc.AsyncRMIOpSized(1, h, 0, tc.op, arg)
				})
				loc.OneSidedFence()
				for i := 0; i < 1024; i++ {
					loc.AsyncRMIBulkOp(1, h, 64, 512, tc.op, arg)
				}
				loc.OneSidedFence()
				bulkAllocs = testing.AllocsPerRun(4000, func() {
					loc.AsyncRMIBulkOp(1, h, 64, 512, tc.op, arg)
				})
				loc.OneSidedFence()
			}
			loc.Barrier()
		})
		if asyncAllocs > maxAsyncAllocs {
			t.Errorf("%s: AsyncRMIOpSized allocates %.2f allocs/op, want <= %.0f", tc.name, asyncAllocs, maxAsyncAllocs)
		}
		if bulkAllocs > maxBulkAllocs {
			t.Errorf("%s: AsyncRMIBulkOp allocates %.2f allocs/flush, want <= %.0f", tc.name, bulkAllocs, maxBulkAllocs)
		}
	}
}
