package runtime

import (
	"fmt"
	"testing"

	"repro/internal/transport"
)

// The adaptive aggregation tests pin the three contracts of the
// occupancy-driven batch sizing: the target GROWS under sustained
// back-to-back traffic (threshold flushes probe upward), COLLAPSES back to 1
// under trickle traffic (explicit flushes observe near-empty buffers), and
// never changes anything observable other than message boundaries — FIFO
// order and machine counters stay deterministic at every batch size, over
// every transport.

// adaptiveConfig returns a config with adaptive aggregation on, seeded at
// seed and bounded by max.
func adaptiveConfig(seed, max int) Config {
	cfg := DefaultConfig()
	cfg.Aggregation = seed
	cfg.AdaptiveAggregation = true
	cfg.AggregationMax = max
	return cfg
}

// TestAdaptiveAggregationGrows drives a long back-to-back burst: every
// threshold flush observes a full buffer and probes upward, so the target
// must climb from the seed to the configured maximum.
func TestAdaptiveAggregationGrows(t *testing.T) {
	const (
		seed  = 2
		max   = 64
		burst = 8000
	)
	var target int
	m := NewMachine(2, adaptiveConfig(seed, max))
	m.Execute(func(loc *Location) {
		obj := &counterObj{}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		if loc.ID() == 0 {
			if got := loc.AggregationTarget(1); got != seed {
				t.Errorf("initial target = %d, want seed %d", got, seed)
			}
			for i := 0; i < burst; i++ {
				loc.AsyncRMI(1, h, func(o any, _ *Location) { o.(*counterObj).add(1) })
			}
			target = loc.AggregationTarget(1)
			loc.OneSidedFence()
		}
		loc.Barrier()
		if loc.ID() == 1 && obj.get() != burst {
			t.Errorf("sink saw %d rmis, want %d", obj.get(), burst)
		}
	})
	if target != max {
		t.Errorf("target after %d back-to-back sends = %d, want max %d", burst, target, max)
	}
}

// TestAdaptiveAggregationCollapses grows the target with a burst, then
// switches to trickle traffic — one request per fence.  Every explicit flush
// observes occupancy 1, so the EWMA must decay until the target is back to 1
// (latency mode: no request waits behind an unfilled batch).
func TestAdaptiveAggregationCollapses(t *testing.T) {
	const (
		max      = 64
		burst    = 4000
		trickles = 200
	)
	var grown, collapsed int
	m := NewMachine(2, adaptiveConfig(16, max))
	m.Execute(func(loc *Location) {
		obj := &counterObj{}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		if loc.ID() == 0 {
			for i := 0; i < burst; i++ {
				loc.AsyncRMI(1, h, func(o any, _ *Location) { o.(*counterObj).add(1) })
			}
			grown = loc.AggregationTarget(1)
			loc.OneSidedFence()
			for i := 0; i < trickles; i++ {
				loc.AsyncRMI(1, h, func(o any, _ *Location) { o.(*counterObj).add(1) })
				loc.OneSidedFence()
			}
			collapsed = loc.AggregationTarget(1)
		}
		loc.Barrier()
	})
	if grown <= 16 {
		t.Errorf("target after burst = %d, want > seed 16", grown)
	}
	if collapsed != 1 {
		t.Errorf("target after %d single-request fences = %d, want 1", trickles, collapsed)
	}
}

// TestAdaptiveAggregationFIFO checks that re-batching never reorders: with
// the target moving up and down across the run, requests from one source
// must still execute in issue order on the destination.
func TestAdaptiveAggregationFIFO(t *testing.T) {
	const n = 2000
	m := NewMachine(3, adaptiveConfig(1, 32))
	m.Execute(func(loc *Location) {
		obj := &orderObj{}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		src := loc.ID()
		dest := (src + 1) % loc.NumLocations()
		for i := 0; i < n; i++ {
			i := i
			loc.AsyncRMI(dest, h, func(o any, _ *Location) { o.(*orderObj).record(src, i) })
			if i%97 == 0 {
				// Vary the observed occupancy so the target keeps moving
				// while the stream is in flight.
				loc.OneSidedFence()
			}
		}
		loc.Fence()
		got := obj.bySrc[(src+loc.NumLocations()-1)%loc.NumLocations()]
		if len(got) != n {
			t.Fatalf("loc %d executed %d requests, want %d", src, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("loc %d: request %d executed at position %d", src, v, i)
			}
		}
	})
}

// adaptiveWorkloadStats runs a deterministic mixed-phase workload (burst,
// trickle, medium) under adaptive aggregation bounded by max, over the given
// transport, and returns the folded machine counters.  The workload avoids
// races that could shift flush boundaries (no split-phase Get), so the
// counters are a pure function of (workload, max) — transport-independent.
func adaptiveWorkloadStats(t *testing.T, factory TransportFactory, max int) Stats {
	t.Helper()
	cfg := adaptiveConfig(min(16, max), max)
	cfg.Transport = factory
	m := NewMachine(3, cfg)
	m.Execute(func(loc *Location) {
		obj := &counterObj{}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		p := loc.NumLocations()
		dest := (loc.ID() + 1) % p
		// Burst phase: target climbs toward max.
		for i := 0; i < 300; i++ {
			loc.AsyncRMISized(dest, h, 16, func(o any, _ *Location) { o.(*counterObj).add(1) })
		}
		// Trickle phase: target decays back toward 1.
		for i := 0; i < 20; i++ {
			loc.AsyncRMI(dest, h, func(o any, _ *Location) { o.(*counterObj).add(10) })
			loc.OneSidedFence()
		}
		// Medium phase with a bulk ship and a blocking checkpoint.
		for i := 0; i < 50; i++ {
			loc.AsyncRMI(dest, h, func(o any, _ *Location) { o.(*counterObj).add(100) })
		}
		loc.AsyncRMIBulk(dest, h, 8, 64, func(o any, _ *Location) { o.(*counterObj).add(1000) })
		if got := syncGet(loc, dest, h); got < 0 {
			t.Errorf("sync checkpoint returned %d", got)
		}
		loc.Fence()
		want := int64(300*1 + 20*10 + 50*100 + 1000)
		if got := obj.get(); got != want {
			t.Errorf("loc %d: counter = %d, want %d", loc.ID(), got, want)
		}
	})
	return m.Stats()
}

// TestAdaptiveCrossTransportEquivalence pins the transport-independence
// contract under adaptive aggregation at every bound, including max=1 where
// the target can only ever be 1: the counters — including MessagesSent,
// which depends on every flush boundary the controller picks — must be
// identical over shared memory, the in-process wire and real TCP sockets.
func TestAdaptiveCrossTransportEquivalence(t *testing.T) {
	for _, max := range []int{1, 2, 4, 16, 64} {
		t.Run(fmt.Sprintf("max=%d", max), func(t *testing.T) {
			baseline := adaptiveWorkloadStats(t, InprocTransport, max)
			for _, tc := range []struct {
				name    string
				factory TransportFactory
			}{
				{"wire-inproc", WireTransport},
				{"tcp", TCPLoopbackTransport},
				{"chaos", ChaosTransport(transport.DefaultChaosConfig())},
			} {
				if s := adaptiveWorkloadStats(t, tc.factory, max); s != baseline {
					t.Errorf("%s stats diverge from inproc at max=%d:\n  inproc: %+v\n  %s: %+v",
						tc.name, max, baseline, tc.name, s)
				}
			}
		})
	}
}
