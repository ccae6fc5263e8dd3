package runtime

import (
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// faultSeed returns the injection seed for this test run.  The CI faults job
// sweeps it through PCF_FAULT_SEED so the suite exercises different (target
// location, trigger point) combinations without code changes.
func faultSeed(t *testing.T) int64 {
	s := os.Getenv("PCF_FAULT_SEED")
	if s == "" {
		return 1
	}
	seed, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad PCF_FAULT_SEED %q: %v", s, err)
	}
	return seed
}

// faultTransports is the transport matrix every fault-injection scenario
// runs over: the abort protocol must behave identically whether requests
// move through shared memory, the in-process wire protocol, kernel TCP
// sockets, or the fault-injected chaos wire.
var faultTransports = []struct {
	name    string
	factory TransportFactory
}{
	{"inproc", InprocTransport},
	{"wire", WireTransport},
	{"tcp", TCPLoopbackTransport},
	{"chaos", ChaosTransport(transport.DefaultChaosConfig())},
}

var faultLocationCounts = []int{2, 3, 4, 8}

// faultWorkload is the traffic pattern driven under injection: every
// location sends enough asynchronous RMIs to every other location that any
// seeded trigger point (AfterHandled < 32) is reached, mixed with
// synchronous requests so abort coverage includes blocked response waits,
// then fences.  On a clean run every counter ends at a known value.
func faultWorkload(loc *Location) {
	obj := &counterObj{}
	h := loc.RegisterObject(obj)
	loc.Barrier()
	p := loc.NumLocations()
	for d := 0; d < p; d++ {
		if d == loc.ID() {
			continue
		}
		for i := 0; i < 64; i++ {
			loc.AsyncRMI(d, h, func(o any, _ *Location) { o.(*counterObj).add(1) })
		}
		syncGet(loc, d, h)
	}
	loc.Fence()
}

// abortBudget bounds how long any faulted run may take to surface its
// MachineFault: the watchdog deadline used by the tests plus the bounded
// abort drain and unwind, with generous slack for -race and TCP.
const abortBudget = 20 * time.Second

// runFaulted executes the workload expecting a fault and asserts the abort
// contract: a non-nil MachineFault arrives within the budget and no
// runtime-owned goroutine leaks.
func runFaulted(t *testing.T, p int, factory TransportFactory, inj *FaultInjection) *MachineFault {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Transport = factory
	cfg.FaultInjection = inj
	cfg.StallTimeout = time.Second
	m := NewMachine(p, cfg)
	start := time.Now()
	fault := m.ExecuteErr(faultWorkload)
	elapsed := time.Since(start)
	if fault == nil {
		t.Fatal("ExecuteErr returned nil for an injected fault")
	}
	if elapsed > abortBudget {
		t.Fatalf("abort took %v, want < %v", elapsed, abortBudget)
	}
	assertNoRuntimeGoroutines(t)
	return fault
}

// TestHandlerPanicAbortsMachine injects a seeded handler panic and asserts
// the fault names the target location on every transport and location count,
// with every other location unblocked instead of deadlocked.
func TestHandlerPanicAbortsMachine(t *testing.T) {
	seed := faultSeed(t)
	for _, tr := range faultTransports {
		for _, p := range faultLocationCounts {
			t.Run(tr.name+"/p="+strconv.Itoa(p), func(t *testing.T) {
				inj := SeededFaultInjection(seed, p, FaultHandlerPanic)
				fault := runFaulted(t, p, tr.factory, inj)
				if fault.Cause.Kind != FaultHandlerPanic {
					t.Fatalf("cause = %v, want handler panic (fault: %v)", fault.Cause.Kind, fault)
				}
				if fault.Cause.Location != inj.Location {
					t.Fatalf("fault names location %d, injected at %d", fault.Cause.Location, inj.Location)
				}
				if len(fault.Cause.Stack) == 0 {
					t.Fatal("handler panic captured no stack")
				}
				if fault.Status[inj.Location] != StatusFaulted {
					t.Fatalf("target status = %v, want faulted", fault.Status[inj.Location])
				}
				if !strings.Contains(fault.Error(), "location "+strconv.Itoa(inj.Location)) {
					t.Fatalf("fault message %q does not name the faulting location", fault.Error())
				}
			})
		}
	}
}

// TestInjectedStallAbortsMachine injects a seeded mid-handler stall and
// asserts the progress watchdog converts it into a FaultStall attributed to
// the stalled location, with the frozen counters dumped in the message.
func TestInjectedStallAbortsMachine(t *testing.T) {
	seed := faultSeed(t)
	for _, tr := range faultTransports {
		for _, p := range faultLocationCounts {
			t.Run(tr.name+"/p="+strconv.Itoa(p), func(t *testing.T) {
				inj := SeededFaultInjection(seed, p, FaultStall)
				fault := runFaulted(t, p, tr.factory, inj)
				if fault.Cause.Kind != FaultStall {
					t.Fatalf("cause = %v, want stall (fault: %v)", fault.Cause.Kind, fault)
				}
				if fault.Cause.Location != inj.Location {
					t.Fatalf("stall attributed to location %d, injected at %d", fault.Cause.Location, inj.Location)
				}
				msg := fault.Error()
				if !strings.Contains(msg, "no progress for") || !strings.Contains(msg, "mailbox=") {
					t.Fatalf("stall diagnostic %q lacks the counter dump", msg)
				}
			})
		}
	}
}

// TestBodyPanicAbortsMachine panics one location's SPMD body while the
// others park in a barrier; the abort must unwind them and report them as
// unwound, not faulted.
func TestBodyPanicAbortsMachine(t *testing.T) {
	for _, tr := range faultTransports {
		for _, p := range faultLocationCounts {
			t.Run(tr.name+"/p="+strconv.Itoa(p), func(t *testing.T) {
				target := p - 1
				cfg := DefaultConfig()
				cfg.Transport = tr.factory
				m := NewMachine(p, cfg)
				fault := m.ExecuteErr(func(loc *Location) {
					if loc.ID() == target {
						panic("spmd body gave up")
					}
					loc.Barrier()
				})
				if fault == nil {
					t.Fatal("ExecuteErr returned nil")
				}
				if fault.Cause.Kind != FaultBodyPanic || fault.Cause.Location != target {
					t.Fatalf("cause = %v at %d, want body panic at %d", fault.Cause.Kind, fault.Cause.Location, target)
				}
				for id, st := range fault.Status {
					want := StatusUnwound
					if id == target {
						want = StatusFaulted
					}
					if st != want {
						t.Errorf("location %d status = %v, want %v", id, st, want)
					}
				}
				assertNoRuntimeGoroutines(t)
			})
		}
	}
}

// TestExecutePanicsWithMachineFault pins the compatibility contract: Execute
// keeps failing by panic, but the panic value is the structured fault.
func TestExecutePanicsWithMachineFault(t *testing.T) {
	m := NewMachine(2, DefaultConfig())
	defer assertNoRuntimeGoroutines(t)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Execute did not panic on a faulted run")
		}
		fault, ok := r.(*MachineFault)
		if !ok {
			t.Fatalf("Execute panicked with %T, want *MachineFault", r)
		}
		if fault.Cause.Kind != FaultBodyPanic || fault.Cause.Location != 1 {
			t.Fatalf("unexpected cause: %v", fault.Cause)
		}
	}()
	m.Execute(func(loc *Location) {
		if loc.ID() == 1 {
			panic("boom")
		}
		loc.Barrier()
	})
}

// TestMachineReusableAfterFault asserts an aborted machine can run again:
// the next ExecuteErr starts from reset abort/pending/mailbox state and
// completes cleanly with correct results.  The usual SPMD registration
// discipline still applies across runs — the poisoned location registers its
// representative before dying, so handle counters stay aligned for run two.
func TestMachineReusableAfterFault(t *testing.T) {
	for _, tr := range faultTransports {
		t.Run(tr.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Transport = tr.factory
			m := NewMachine(4, cfg)
			var poison atomic.Bool
			poison.Store(true)
			body := func(loc *Location) {
				obj := &counterObj{}
				h := loc.RegisterObject(obj)
				if poison.Load() && loc.ID() == 2 {
					panic("first run dies")
				}
				loc.Barrier()
				for d := 0; d < loc.NumLocations(); d++ {
					if d == loc.ID() {
						continue
					}
					for i := 0; i < 8; i++ {
						loc.AsyncRMI(d, h, func(o any, _ *Location) { o.(*counterObj).add(1) })
					}
				}
				loc.Fence()
				if got, want := obj.get(), int64(8*(loc.NumLocations()-1)); got != want {
					t.Errorf("loc %d: counter = %d, want %d", loc.ID(), got, want)
				}
			}
			if fault := m.ExecuteErr(body); fault == nil {
				t.Fatal("poisoned run returned nil fault")
			}
			assertNoRuntimeGoroutines(t)
			poison.Store(false)
			if fault := m.ExecuteErr(body); fault != nil {
				t.Fatalf("machine not reusable after abort: %v", fault)
			}
			assertNoRuntimeGoroutines(t)
		})
	}
}

// TestSyncRMIUnblocksOnAbort parks one location in a synchronous RMI whose
// handler stalls forever; the watchdog abort must unwind the blocked caller
// rather than leave it waiting for a response that cannot come.
func TestSyncRMIUnblocksOnAbort(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StallTimeout = 500 * time.Millisecond
	cfg.FaultInjection = &FaultInjection{Location: 1, Kind: FaultStall, AfterHandled: 0}
	m := NewMachine(2, cfg)
	start := time.Now()
	fault := m.ExecuteErr(func(loc *Location) {
		obj := &counterObj{}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		if loc.ID() == 0 {
			syncGet(loc, 1, h)
		}
		loc.Fence()
	})
	if fault == nil {
		t.Fatal("stalled sync handler produced no fault")
	}
	if fault.Cause.Kind != FaultStall || fault.Cause.Location != 1 {
		t.Fatalf("cause = %v, want stall at location 1", fault.Cause)
	}
	if elapsed := time.Since(start); elapsed > abortBudget {
		t.Fatalf("blocked SyncRMI held the abort for %v", elapsed)
	}
	if fault.Status[0] != StatusUnwound {
		t.Fatalf("blocked caller status = %v, want unwound", fault.Status[0])
	}
	assertNoRuntimeGoroutines(t)
}

// TestFutureUnblocksOnAbort parks a location on a split-phase future whose
// completion dies with the machine; Get must unwind, not deadlock.
func TestFutureUnblocksOnAbort(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StallTimeout = 500 * time.Millisecond
	cfg.FaultInjection = &FaultInjection{Location: 1, Kind: FaultStall, AfterHandled: 0}
	m := NewMachine(2, cfg)
	fault := m.ExecuteErr(func(loc *Location) {
		obj := &counterObj{}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		if loc.ID() == 0 {
			fut := splitGet(loc, 1, h)
			fut.Get()
		}
		loc.Fence()
	})
	if fault == nil || fault.Cause.Kind != FaultStall {
		t.Fatalf("fault = %v, want stall", fault)
	}
	if fault.Status[0] != StatusUnwound {
		t.Fatalf("future waiter status = %v, want unwound", fault.Status[0])
	}
	assertNoRuntimeGoroutines(t)
}

// TestBarrierSeesAbortThatLandedBeforeItsWait replays the interleaving in
// which a location passes barrier's entry abort check, the machine then
// aborts completely (channel closed, waiters broadcast — there are none yet),
// and only then the location takes barMu: it must see the abort before it
// waits, because no second broadcast will come.  The test holds barMu to park
// the location in that window and performs abort()'s barrier steps itself.
func TestBarrierSeesAbortThatLandedBeforeItsWait(t *testing.T) {
	m := NewMachine(2, DefaultConfig())
	m.beginRun()
	m.barMu.Lock()
	unwound := make(chan any, 1)
	go func() {
		defer func() { unwound <- recover() }()
		m.barrier()
	}()
	// Let the location pass its entry check and queue on barMu.  Should it
	// be slower than this, it unwinds at the entry check instead and the test
	// passes without exercising the window.
	time.Sleep(50 * time.Millisecond)
	m.abortOnce.Do(func() { close(m.abortCh) })
	m.barCv.Broadcast()
	m.barMu.Unlock()
	select {
	case r := <-unwound:
		if _, ok := r.(abortSignal); !ok {
			t.Fatalf("barrier returned %v, want an abort unwind", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("location waits in Barrier for a wakeup that was already delivered")
	}
}

// TestFaultInjectionFromEnv pins the PCF_CHAOS_PANIC / PCF_CHAOS_STALL
// resolution: a seed in the environment arms every machine built without an
// explicit plan, deterministically.
func TestFaultInjectionFromEnv(t *testing.T) {
	t.Run("panic seed", func(t *testing.T) {
		t.Setenv("PCF_CHAOS_PANIC", "7")
		m := NewMachine(4, DefaultConfig())
		inj := m.Location(0).cfg.FaultInjection
		if inj == nil || inj.Kind != FaultHandlerPanic {
			t.Fatalf("injection = %+v, want a handler-panic plan", inj)
		}
		want := SeededFaultInjection(7, 4, FaultHandlerPanic)
		if *inj != *want {
			t.Fatalf("env plan %+v differs from seeded plan %+v", inj, want)
		}
		fault := m.ExecuteErr(faultWorkload)
		if fault == nil || fault.Cause.Kind != FaultHandlerPanic || fault.Cause.Location != want.Location {
			t.Fatalf("env-armed run returned %v, want handler panic at %d", fault, want.Location)
		}
		assertNoRuntimeGoroutines(t)
	})
	t.Run("stall seed arms watchdog", func(t *testing.T) {
		t.Setenv("PCF_CHAOS_STALL", "3")
		m := NewMachine(4, DefaultConfig())
		inj := m.Location(0).cfg.FaultInjection
		if inj == nil || inj.Kind != FaultStall {
			t.Fatalf("injection = %+v, want a stall plan", inj)
		}
		if m.stallTimeout <= 0 {
			t.Fatal("stall injection without a watchdog would deadlock; default deadline not armed")
		}
	})
	t.Run("bad seed panics", func(t *testing.T) {
		t.Setenv("PCF_CHAOS_PANIC", "not-a-number")
		defer func() {
			if recover() == nil {
				t.Fatal("unparsable PCF_CHAOS_PANIC must panic")
			}
		}()
		NewMachine(2, DefaultConfig())
	})
}

// TestCleanRunReturnsNoFault guards against false positives: the full mixed
// workload with the watchdog armed must complete fault-free on every
// transport, and local-compute phases must never be flagged as stalls.
func TestCleanRunReturnsNoFault(t *testing.T) {
	for _, tr := range faultTransports {
		t.Run(tr.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Transport = tr.factory
			cfg.StallTimeout = 500 * time.Millisecond
			m := NewMachine(4, cfg)
			fault := m.ExecuteErr(func(loc *Location) {
				faultWorkload(loc)
				// Local compute longer than the stall deadline with zero
				// pending requests: the watchdog must stay quiet.
				time.Sleep(700 * time.Millisecond)
				loc.Barrier()
			})
			if fault != nil {
				t.Fatalf("clean run faulted: %v", fault)
			}
			assertNoRuntimeGoroutines(t)
		})
	}
}
