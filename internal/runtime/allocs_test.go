package runtime

import "testing"

// TestRMIAllocsPerOp pins the steady-state allocation cost of the RMI hot
// path — the registered-operation entry points every container method
// issues through, and the closure SyncRMI round trip — with
// testing.AllocsPerRun, so an accidental re-introduction of a per-request
// allocation (a capturing closure, an unpooled request, a boxed batch header,
// a fresh response channel) fails the ordinary test suite — not just the
// advisory benchmarks.  A by-reference operation must cost the same as a
// by-value one.  AllocsPerRun reads global memstats, so the measured figure
// includes the serving location's delivery work too, and it is an average
// rounded down: a collection that empties the pools mid-run does not show, an
// allocation per operation does.  The transport is pinned in-process: a wire
// adapter allocates frames per message, which is not what is pinned here.
// Under the race detector sync.Pool drops a quarter of what it is handed, at
// random: there the pins are the bounds they were before they were exact.
func TestRMIAllocsPerOp(t *testing.T) {
	var maxAsync, maxBulk, maxSync float64
	if raceDetector {
		maxAsync, maxBulk, maxSync = 1, 2, 2
	}
	cases := []struct {
		name string
		op   OpID
	}{{"by-value", bumpOp}, {"by-reference", bumpRefOp}}
	for _, tc := range cases {
		var asyncAllocs, bulkAllocs, syncAllocs float64
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
				// A closure that captures nothing and returns a small value: the
				// call parks on a pooled record and the result is stored in it.
				syncAllocs = testing.AllocsPerRun(4000, func() {
					loc.SyncRMI(1, h, func(any, *Location) any { return int64(1) })
				})
			}
			loc.Barrier()
		})
		if asyncAllocs > maxAsync {
			t.Errorf("%s: AsyncRMIOpSized allocates %v objects per request, want %v", tc.name, asyncAllocs, maxAsync)
		}
		if bulkAllocs > maxBulk {
			t.Errorf("%s: AsyncRMIBulkOp allocates %v objects per flush, want %v", tc.name, bulkAllocs, maxBulk)
		}
		if syncAllocs > maxSync {
			t.Errorf("%s: a closure SyncRMI allocates %v objects per round trip, want %v", tc.name, syncAllocs, maxSync)
		}
	}
}
