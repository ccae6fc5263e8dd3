package runtime

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/transport"
)

// mixedWorkloadStats runs one deterministic workload exercising every RMI
// flavour over the given transport and returns the machine's folded
// statistics plus the wire identity and counters of the run.  The workload's
// correctness is asserted inside; the caller compares the stats across
// transports.
func mixedWorkloadStats(t *testing.T, factory TransportFactory) (Stats, string, transport.WireStats) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Transport = factory
	m := NewMachine(4, cfg)
	m.Execute(func(loc *Location) {
		obj := &counterObj{}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		p := loc.NumLocations()
		for d := 0; d < p; d++ {
			if d == loc.ID() {
				continue
			}
			for i := 0; i < 40; i++ {
				loc.AsyncRMISized(d, h, 16, func(o any, _ *Location) { o.(*counterObj).add(1) })
			}
			loc.AsyncRMIUrgent(d, h, func(o any, _ *Location) { o.(*counterObj).add(10) })
			loc.AsyncRMIBulk(d, h, 8, 64, func(o any, _ *Location) { o.(*counterObj).add(100) })
			got := syncGet(loc, d, h)
			if got < 0 {
				t.Errorf("sync rmi returned %d", got)
			}
			fut := splitCall(loc, d, h, func(o any, _ *Location) int64 { o.(*counterObj).add(1000); return o.(*counterObj).get() })
			if fut.Get() < 1000 {
				t.Error("split rmi observed value before its own add")
			}
		}
		loc.Fence()
		want := int64((40 + 10 + 100 + 1000) * (p - 1))
		if got := obj.get(); got != want {
			t.Errorf("loc %d: counter = %d, want %d", loc.ID(), got, want)
		}
	})
	return m.Stats(), m.TransportName(), m.WireStats()
}

// TestCrossTransportStatsEquivalence pins the transport-independence
// contract: the machine statistics are counted at logical send/execute time,
// so the same deterministic workload must produce IDENTICAL counters over
// shared memory, the in-process wire protocol, real TCP loopback sockets and
// the fault-injected chaos wire.
func TestCrossTransportStatsEquivalence(t *testing.T) {
	baseline, name, ws := mixedWorkloadStats(t, InprocTransport)
	if name != "inproc" {
		t.Fatalf("inproc transport named %q", name)
	}
	if ws != (transport.WireStats{}) {
		t.Fatalf("inproc transport reported wire traffic: %+v", ws)
	}
	cases := []struct {
		name    string
		factory TransportFactory
	}{
		{"reliable+wire-inproc", WireTransport},
		{"reliable+tcp", TCPLoopbackTransport},
		{"reliable+chaos+wire-inproc", ChaosTransport(transport.DefaultChaosConfig())},
	}
	var wireDataFrames int64 = -1
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, name, ws := mixedWorkloadStats(t, tc.factory)
			if s != baseline {
				t.Errorf("stats diverge from inproc:\n  inproc: %+v\n  %s: %+v", baseline, name, s)
			}
			if name != tc.name {
				t.Errorf("transport named %q, want %q", name, tc.name)
			}
			if ws.DataFrames == 0 || ws.FramesSent == 0 || ws.BytesSent == 0 {
				t.Errorf("wire transport moved no frames: %+v", ws)
			}
			// First-send data frames mirror the logical batch count, so they
			// too must agree across wires (retransmits are counted apart).
			if wireDataFrames == -1 {
				wireDataFrames = ws.DataFrames
			} else if ws.DataFrames != wireDataFrames {
				t.Errorf("data frames diverge across wires: %d vs %d", ws.DataFrames, wireDataFrames)
			}
		})
	}
}

// orderObj records, per source location, the order in which handler payloads
// arrived.
type orderObj struct {
	mu    sync.Mutex
	bySrc map[int][]int
}

func (o *orderObj) record(src, v int) {
	o.mu.Lock()
	if o.bySrc == nil {
		o.bySrc = make(map[int][]int)
	}
	o.bySrc[src] = append(o.bySrc[src], v)
	o.mu.Unlock()
}

// TestChaosTransportFIFOExactlyOnce asserts the runtime-visible guarantee
// under fault injection: per (source, destination) pair, asynchronous RMIs
// execute in invocation order, each exactly once — while the wire stats
// prove that frames really were dropped and retransmitted underneath.
func TestChaosTransportFIFOExactlyOnce(t *testing.T) {
	const k = 300
	cfg := DefaultConfig()
	cfg.Transport = ChaosTransport(transport.DefaultChaosConfig())
	m := NewMachine(4, cfg)
	objs := make([]*orderObj, 4)
	m.Execute(func(loc *Location) {
		obj := &orderObj{}
		objs[loc.ID()] = obj
		h := loc.RegisterObject(obj)
		loc.Barrier()
		src := loc.ID()
		for d := 0; d < loc.NumLocations(); d++ {
			if d == src {
				continue
			}
			for i := 0; i < k; i++ {
				i := i
				loc.AsyncRMI(d, h, func(o any, _ *Location) { o.(*orderObj).record(src, i) })
			}
		}
		loc.Fence()
	})
	for dst, obj := range objs {
		for src := 0; src < 4; src++ {
			if src == dst {
				continue
			}
			got := obj.bySrc[src]
			if len(got) != k {
				t.Fatalf("pair %d->%d executed %d RMIs, want exactly %d", src, dst, len(got), k)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("pair %d->%d position %d executed payload %d (FIFO violated)", src, dst, i, v)
				}
			}
		}
	}
	ws := m.WireStats()
	if ws.Dropped == 0 || ws.Retransmits == 0 || ws.DuplicatesDropped == 0 {
		t.Fatalf("chaos injected no faults worth recovering from: %+v", ws)
	}
}

// TestWireStatsExposedAfterExecute pins the post-run inspection surface:
// name and counters of the last run remain readable once Execute returns
// and the transport itself is gone.
func TestWireStatsExposedAfterExecute(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport = TCPLoopbackTransport
	m := NewMachine(2, cfg)
	m.Execute(func(loc *Location) {
		obj := &counterObj{}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		loc.AsyncRMI(1-loc.ID(), h, func(o any, _ *Location) { o.(*counterObj).add(1) })
		loc.Fence()
	})
	if name := m.TransportName(); name != "reliable+tcp" {
		t.Fatalf("TransportName = %q after Execute", name)
	}
	ws := m.WireStats()
	if ws.FramesSent == 0 || ws.BytesSent == 0 || ws.Connections == 0 {
		t.Fatalf("no retained wire counters: %+v", ws)
	}
}

// TestTransportFromEnv pins the PCF_TRANSPORT resolution table, including
// the fail-fast posture for typos.
func TestTransportFromEnv(t *testing.T) {
	wantNames := map[string]string{
		"":          "inproc",
		"inproc":    "inproc",
		"wire":      "reliable+wire-inproc",
		"tcp":       "reliable+tcp",
		"chaos":     "reliable+chaos+wire-inproc",
		"chaos-tcp": "reliable+chaos+tcp",
	}
	for env, want := range wantNames {
		t.Run(fmt.Sprintf("env=%q", env), func(t *testing.T) {
			t.Setenv("PCF_TRANSPORT", env)
			m := NewMachine(2, Config{Aggregation: 1})
			tr := TransportFromEnv()(m)
			defer tr.Close()
			if tr.Name() != want {
				t.Fatalf("PCF_TRANSPORT=%q built %q, want %q", env, tr.Name(), want)
			}
		})
	}
	t.Run("unknown name panics", func(t *testing.T) {
		t.Setenv("PCF_TRANSPORT", "carrier-pigeon")
		defer func() {
			if recover() == nil {
				t.Fatal("unknown transport name must panic, not fall back")
			}
		}()
		TransportFromEnv()
	})
	t.Run("bad chaos seed panics", func(t *testing.T) {
		t.Setenv("PCF_TRANSPORT", "chaos")
		t.Setenv("PCF_CHAOS_SEED", "not-a-number")
		defer func() {
			if recover() == nil {
				t.Fatal("unparsable PCF_CHAOS_SEED must panic")
			}
		}()
		TransportFromEnv()
	})
	t.Run("chaos seed accepted", func(t *testing.T) {
		t.Setenv("PCF_TRANSPORT", "chaos")
		t.Setenv("PCF_CHAOS_SEED", "42")
		m := NewMachine(2, Config{Aggregation: 1})
		tr := TransportFromEnv()(m)
		defer tr.Close()
		if tr.Name() != "reliable+chaos+wire-inproc" {
			t.Fatalf("seeded chaos built %q", tr.Name())
		}
	})
}
