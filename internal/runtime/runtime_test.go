package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// counterObj is a trivial p_object used to exercise RMIs.
type counterObj struct {
	mu    sync.Mutex
	value int64
	log   []int64
}

func (c *counterObj) add(v int64) {
	c.mu.Lock()
	c.value += v
	c.log = append(c.log, v)
	c.mu.Unlock()
}

func (c *counterObj) get() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.value
}

func TestMachineBasics(t *testing.T) {
	m := NewMachine(4, DefaultConfig())
	if m.NumLocations() != 4 {
		t.Fatalf("NumLocations = %d, want 4", m.NumLocations())
	}
	var ran atomic.Int64
	m.Execute(func(loc *Location) {
		if loc.NumLocations() != 4 {
			t.Errorf("loc.NumLocations = %d, want 4", loc.NumLocations())
		}
		if loc.Machine() != m {
			t.Error("loc.Machine mismatch")
		}
		ran.Add(1)
	})
	if ran.Load() != 4 {
		t.Fatalf("SPMD function ran %d times, want 4", ran.Load())
	}
}

func TestNewMachinePanicsOnZeroLocations(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0 locations")
		}
	}()
	NewMachine(0, DefaultConfig())
}

func TestAsyncRMIAndFence(t *testing.T) {
	m := NewMachine(4, DefaultConfig())
	total := int64(0)
	var totMu sync.Mutex
	m.Execute(func(loc *Location) {
		obj := &counterObj{}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		// Every location sends 100 increments to every other location.
		for d := 0; d < loc.NumLocations(); d++ {
			for i := 0; i < 100; i++ {
				loc.AsyncRMI(d, h, func(o any, _ *Location) { o.(*counterObj).add(1) })
			}
		}
		loc.Fence()
		got := obj.get()
		if got != int64(100*loc.NumLocations()) {
			t.Errorf("loc %d: counter = %d, want %d", loc.ID(), got, 100*loc.NumLocations())
		}
		totMu.Lock()
		total += got
		totMu.Unlock()
	})
	if total != 4*400 {
		t.Fatalf("total = %d, want %d", total, 4*400)
	}
}

func TestAsyncRMIOrderingPerDestination(t *testing.T) {
	// Requests from one location to one destination must execute in
	// program order even with aggregation enabled.
	cfg := DefaultConfig()
	cfg.Aggregation = 7
	m := NewMachine(2, cfg)
	m.Execute(func(loc *Location) {
		obj := &counterObj{}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		if loc.ID() == 0 {
			for i := int64(0); i < 1000; i++ {
				v := i
				loc.AsyncRMI(1, h, func(o any, _ *Location) { o.(*counterObj).add(v) })
			}
		}
		loc.Fence()
		if loc.ID() == 1 {
			if len(obj.log) != 1000 {
				t.Fatalf("received %d requests, want 1000", len(obj.log))
			}
			for i, v := range obj.log {
				if v != int64(i) {
					t.Fatalf("request %d carried %d, want %d (ordering violated)", i, v, i)
				}
			}
		}
	})
}

// syncGet reads the counter behind h on dest with a blocking round trip.
func syncGet(loc *Location, dest int, h Handle) int64 {
	return loc.SyncRMI(dest, h, func(o any, _ *Location) any { return o.(*counterObj).get() }).(int64)
}

// splitCall is how a split-phase method is built on the RTS: an urgent
// request whose handler completes an abortable future with fn's result.
func splitCall[T any](loc *Location, dest int, h Handle, fn func(o any, l *Location) T) *FutureOf[T] {
	f := loc.NewAbortableFuture()
	loc.AsyncRMIUrgent(dest, h, func(o any, l *Location) { f.Complete(fn(o, l)) })
	return NewFutureOf[T](f)
}

// splitGet is the split-phase counterpart of syncGet.
func splitGet(loc *Location, dest int, h Handle) *FutureOf[int64] {
	return splitCall(loc, dest, h, func(o any, _ *Location) int64 { return o.(*counterObj).get() })
}

func TestSyncRMI(t *testing.T) {
	m := NewMachine(3, DefaultConfig())
	m.Execute(func(loc *Location) {
		obj := &counterObj{value: int64(loc.ID()) * 10}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		for d := 0; d < loc.NumLocations(); d++ {
			got := syncGet(loc, d, h)
			if got != int64(d)*10 {
				t.Errorf("sync rmi to %d returned %d, want %d", d, got, d*10)
			}
		}
		loc.Fence()
	})
}

func TestSplitPhaseRMI(t *testing.T) {
	m := NewMachine(4, DefaultConfig())
	m.Execute(func(loc *Location) {
		obj := &counterObj{value: int64(loc.ID()) + 1}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		futs := make([]*FutureOf[int64], loc.NumLocations())
		for d := 0; d < loc.NumLocations(); d++ {
			futs[d] = splitGet(loc, d, h)
		}
		var sum int64
		for d, f := range futs {
			v := f.Get()
			if v != int64(d)+1 {
				t.Errorf("future from %d = %d, want %d", d, v, d+1)
			}
			sum += v
		}
		want := int64(loc.NumLocations() * (loc.NumLocations() + 1) / 2)
		if sum != want {
			t.Errorf("sum = %d, want %d", sum, want)
		}
		loc.Fence()
	})
}

func TestFutureSemantics(t *testing.T) {
	f := NewFuture()
	if f.Done() {
		t.Fatal("new future should not be done")
	}
	if _, ok := f.TryGet(); ok {
		t.Fatal("TryGet on incomplete future should fail")
	}
	go func() {
		time.Sleep(time.Millisecond)
		f.Complete(42)
	}()
	if got := f.Get(); got.(int) != 42 {
		t.Fatalf("Get = %v, want 42", got)
	}
	if v, ok := f.TryGet(); !ok || v.(int) != 42 {
		t.Fatalf("TryGet = %v,%v; want 42,true", v, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double completion should panic")
		}
	}()
	f.Complete(43)
}

func TestCompletedFuture(t *testing.T) {
	f := CompletedFuture("hi")
	if !f.Done() {
		t.Fatal("CompletedFuture should be done")
	}
	if f.Get() != "hi" {
		t.Fatalf("Get = %q, want hi", f.Get())
	}
	if v, ok := f.TryGet(); !ok || v != "hi" {
		t.Fatalf("TryGet = %q,%v", v, ok)
	}
}

func TestCollectives(t *testing.T) {
	m := NewMachine(5, DefaultConfig())
	m.Execute(func(loc *Location) {
		// Broadcast.
		v := BroadcastT(loc, 2, loc.ID()*100)
		if v != 200 {
			t.Errorf("broadcast got %d, want 200", v)
		}
		// AllReduce sum of ids.
		s := AllReduceSum(loc, int64(loc.ID()))
		if s != 10 {
			t.Errorf("allreduce sum = %d, want 10", s)
		}
		// AllReduce max.
		mx := AllReduceMax(loc, int64(loc.ID()))
		if mx != 4 {
			t.Errorf("allreduce max = %d, want 4", mx)
		}
		// AllGather.
		g := AllGatherT(loc, loc.ID())
		for i, x := range g {
			if x != i {
				t.Errorf("allgather[%d] = %d", i, x)
			}
		}
		// ExclusiveScan.
		pre := ExclusiveScan(loc, 1, 0, func(a, b int) int { return a + b })
		if pre != loc.ID() {
			t.Errorf("exclusive scan = %d, want %d", pre, loc.ID())
		}
		// Reduce to root.
		r := loc.Reduce(0, int64(1), func(a, b any) any { return a.(int64) + b.(int64) })
		if loc.ID() == 0 {
			if r.(int64) != 5 {
				t.Errorf("reduce = %v, want 5", r)
			}
		} else if r != nil {
			t.Errorf("non-root reduce = %v, want nil", r)
		}
		// Float reduction.
		fs := AllReduceFloat(loc, 0.5)
		if fs != 2.5 {
			t.Errorf("float allreduce = %v, want 2.5", fs)
		}
	})
}

func TestOneSidedFence(t *testing.T) {
	m := NewMachine(2, DefaultConfig())
	m.Execute(func(loc *Location) {
		obj := &counterObj{}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		if loc.ID() == 0 {
			for i := 0; i < 500; i++ {
				loc.AsyncRMI(1, h, func(o any, _ *Location) { o.(*counterObj).add(1) })
			}
			loc.OneSidedFence()
			got := syncGet(loc, 1, h)
			if got != 500 {
				t.Errorf("after one-sided fence remote counter = %d, want 500", got)
			}
		}
		loc.Fence()
	})
}

func TestAggregationReducesMessages(t *testing.T) {
	run := func(agg int) int64 {
		cfg := DefaultConfig()
		cfg.Aggregation = agg
		m := NewMachine(2, cfg)
		m.Execute(func(loc *Location) {
			obj := &counterObj{}
			h := loc.RegisterObject(obj)
			loc.Barrier()
			if loc.ID() == 0 {
				for i := 0; i < 1024; i++ {
					loc.AsyncRMI(1, h, func(o any, _ *Location) { o.(*counterObj).add(1) })
				}
			}
			loc.Fence()
		})
		return m.Stats().MessagesSent
	}
	noAgg := run(1)
	agg := run(32)
	if agg >= noAgg {
		t.Fatalf("aggregation did not reduce message count: %d (agg) vs %d (no agg)", agg, noAgg)
	}
}

func TestLocalVsRemoteCounting(t *testing.T) {
	m := NewMachine(2, DefaultConfig())
	m.Execute(func(loc *Location) {
		obj := &counterObj{}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		if loc.ID() == 0 {
			for i := 0; i < 10; i++ {
				loc.AsyncRMI(0, h, func(o any, _ *Location) { o.(*counterObj).add(1) })
			}
			for i := 0; i < 7; i++ {
				loc.AsyncRMI(1, h, func(o any, _ *Location) { o.(*counterObj).add(1) })
			}
			if loc.LocalRMIs() != 10 {
				t.Errorf("local RMIs = %d, want 10", loc.LocalRMIs())
			}
			if loc.RemoteRMIs() != 7 {
				t.Errorf("remote RMIs = %d, want 7", loc.RemoteRMIs())
			}
		}
		loc.Fence()
	})
}

func TestRemoteDelayIsApplied(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Aggregation = 1
	cfg.RemoteDelay = func(src, dst int) time.Duration { return 2 * time.Millisecond }
	m := NewMachine(2, cfg)
	start := time.Now()
	m.Execute(func(loc *Location) {
		obj := &counterObj{}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		if loc.ID() == 0 {
			for i := 0; i < 5; i++ {
				loc.AsyncRMI(1, h, func(o any, _ *Location) { o.(*counterObj).add(1) })
			}
		}
		loc.Fence()
	})
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("expected at least 10ms of injected latency, got %v", elapsed)
	}
}

func TestRegisterUnregister(t *testing.T) {
	m := NewMachine(1, DefaultConfig())
	m.Execute(func(loc *Location) {
		a := &counterObj{}
		b := &counterObj{}
		ha := loc.RegisterObject(a)
		hb := loc.RegisterObject(b)
		if ha == hb {
			t.Fatal("distinct objects received the same handle")
		}
		loc.AsyncRMI(0, hb, func(o any, _ *Location) {
			if o != b {
				t.Error("handle resolved to the wrong object")
			}
		})
		loc.UnregisterObject(ha)
		defer func() {
			if recover() == nil {
				t.Error("expected panic when resolving an unregistered handle")
			}
		}()
		loc.object(ha)
	})
}

func TestPayloadBytes(t *testing.T) {
	if PayloadBytes(5) != 8 {
		t.Errorf("default payload size = %d, want 8", PayloadBytes(5))
	}
	if PayloadBytes(sized{}) != 128 {
		t.Errorf("sized payload = %d, want 128", PayloadBytes(sized{}))
	}
}

type sized struct{}

func (sized) ByteSize() int { return 128 }

// sizedPtr sizes itself from its contents: resolving its tier must not ask a
// nil one.
type sizedPtr struct{ n int }

func (s *sizedPtr) ByteSize() int { return s.n }

type registered struct{ n int }

type unsized struct{ a, b int64 }

// TestSizerForAgreesWithPayloadBytes: the once-per-type resolution and the
// per-value one are the same three tiers, and only the accounted flavour
// counts a guess.
func TestSizerForAgreesWithPayloadBytes(t *testing.T) {
	RegisterSizer(func(r registered) int { return 3 * r.n })
	check := func(what string, got, want int) {
		t.Helper()
		if got != want {
			t.Errorf("%s sized at %d bytes, want %d", what, got, want)
		}
	}
	check("int64", SizerFor[int64]()(5), PayloadBytes(int64(5)))
	check("float64", SizerFor[float64]()(5), 8)
	check("Sizer value", SizerFor[sized]()(sized{}), 128)
	check("Sizer pointer", SizerFor[*sizedPtr]()(&sizedPtr{n: 40}), 40)
	check("registered type", SizerFor[registered]()(registered{n: 7}), 21)
	check("registered type, per value", PayloadBytes(registered{n: 7}), 21)
	check("unsized struct", SizerFor[unsized]()(unsized{}), PayloadBytes(unsized{}))
	// A sizer that arrives after a SizerFor settled on the guess would be
	// ignored by that operation's replies: a loud error, not a silent one.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RegisterSizer for a type SizerFor already guessed did not panic")
			}
		}()
		RegisterSizer(func(unsized) int { return 16 })
	}()
	anySize := SizerFor[any]()
	check("any holding nil", anySize(nil), 8)
	check("any holding a Sizer", anySize(sized{}), 128)
	check("any holding a registered type", anySize(registered{n: 2}), 6)

	m := NewMachine(1, DefaultConfig())
	m.Execute(func(loc *Location) {
		loc.PayloadBytes(int64(1))
		loc.PayloadBytes(sized{})
		loc.PayloadBytes(registered{n: 1})
		loc.PayloadBytes(unsized{}) // the one guess
	})
	if got := m.Stats().SizerMisses; got != 1 {
		t.Errorf("SizerMisses = %d, want 1", got)
	}
}

func TestStatsCounters(t *testing.T) {
	m := NewMachine(2, DefaultConfig())
	m.Execute(func(loc *Location) {
		obj := &counterObj{}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		if loc.ID() == 0 {
			loc.AsyncRMI(1, h, func(o any, _ *Location) { o.(*counterObj).add(1) })
			syncGet(loc, 1, h)
		}
		loc.Fence()
	})
	s := m.Stats()
	if s.AsyncRMIs != 1 || s.SyncRMIs != 1 {
		t.Fatalf("stats async/sync = %d/%d, want 1/1", s.AsyncRMIs, s.SyncRMIs)
	}
	if s.Fences != 2 {
		t.Fatalf("fence count = %d, want 2", s.Fences)
	}
	if s.RMIsHandled == 0 {
		t.Fatal("no RMIs handled")
	}
}

func TestExecuteOnHelper(t *testing.T) {
	var n atomic.Int64
	m := ExecuteOn(3, func(loc *Location) { n.Add(1) })
	if n.Load() != 3 {
		t.Fatalf("ran %d times, want 3", n.Load())
	}
	if m.NumLocations() != 3 {
		t.Fatalf("machine has %d locations", m.NumLocations())
	}
}

// TestMCMPerElementOrdering checks the paper's memory-consistency guarantee
// that asynchronous writes followed by a synchronous read of the *same*
// element from the same location observe the last write (program order per
// element), without any fence in between.
func TestMCMPerElementOrdering(t *testing.T) {
	m := NewMachine(2, DefaultConfig())
	m.Execute(func(loc *Location) {
		obj := &counterObj{}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		if loc.ID() == 0 {
			for i := 0; i < 50; i++ {
				loc.AsyncRMI(1, h, func(o any, _ *Location) { o.(*counterObj).add(1) })
			}
			// Synchronous read to the same destination: must observe all
			// 50 asynchronous writes because per (src,dst) requests are
			// FIFO and the sync request flushes the aggregation buffer.
			got := syncGet(loc, 1, h)
			if got != 50 {
				t.Errorf("sync read after async writes = %d, want 50", got)
			}
		}
		loc.Fence()
	})
}
