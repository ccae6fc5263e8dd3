package runtime

import (
	goruntime "runtime"
	"strconv"
	"testing"
	"time"
)

// forwardingProgram is the traffic a polling fence used to paper over: every
// send below the aggregation threshold, most of them issued by handlers.
// Location 0 starts a chain 0 -> 1 -> ... -> p-1 (each handler forwards ONE
// AsyncRMI) and sends location p-1 one aggregated batch of forwardingBatch
// requests whose handlers each forward one send to location 1 — all buffered
// for the same destination with nobody left to fill the buffer, and shipped
// as one message only if no flush cuts into the batch.
//
// objs[i] is location i's object; forwardingWant(i, p) is the number of
// handlers that must have run on it once the traffic has drained.
func forwardingProgram(loc *Location, objs []*counterObj) {
	p := loc.NumLocations()
	h := loc.RegisterObject(objs[loc.ID()])
	loc.Barrier()
	if loc.ID() != 0 {
		return
	}
	var hop func(o any, l *Location)
	hop = func(o any, l *Location) {
		o.(*counterObj).add(1)
		if next := l.ID() + 1; next < p {
			l.AsyncRMI(next, h, hop)
		}
	}
	loc.AsyncRMI(1, h, hop)
	for i := 0; i < forwardingBatch; i++ {
		loc.AsyncRMI(p-1, h, func(o any, l *Location) {
			o.(*counterObj).add(1)
			l.AsyncRMI(1, h, func(o any, _ *Location) { o.(*counterObj).add(1) })
		})
	}
}

const forwardingBatch = 10

// forwardingWant is the handler count forwardingProgram leaves on location i.
func forwardingWant(i, p int) int64 {
	switch i {
	case 0:
		return 0
	case 1, p - 1:
		return 1 + forwardingBatch // a chain hop, and the batch or its forwards
	default:
		return 1
	}
}

// TestFenceDrainsTransitiveBufferedSends asserts the fence contract for sends
// that only handlers make and that never fill a buffer: after Fence every
// effect is visible, and the same traffic with no fence before the bodies
// return is drained by Execute itself.
func TestFenceDrainsTransitiveBufferedSends(t *testing.T) {
	const p = 6
	for _, tr := range faultTransports {
		for _, fenced := range []bool{true, false} {
			t.Run(tr.name+"/fenced="+strconv.FormatBool(fenced), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Aggregation = 16
				cfg.Transport = tr.factory
				objs := make([]*counterObj, p)
				for i := range objs {
					objs[i] = &counterObj{}
				}
				NewMachine(p, cfg).Execute(func(loc *Location) {
					forwardingProgram(loc, objs)
					if !fenced {
						return
					}
					loc.Fence()
					if got, want := objs[loc.ID()].get(), forwardingWant(loc.ID(), p); got != want {
						t.Errorf("after Fence location %d ran %d handlers, want %d", loc.ID(), got, want)
					}
				})
				for i, o := range objs {
					if got, want := o.get(), forwardingWant(i, p); got != want {
						t.Errorf("after Execute location %d ran %d handlers, want %d", i, got, want)
					}
				}
			})
		}
	}
}

// TestFencedProgramCountersDeterministic is ROADMAP item 1's acceptance line:
// the machine statistics of a fenced program whose traffic is mostly
// transitive are identical run after run — nobody flushes another location's
// buffers at whatever moment a poll happens to land, and a location's own
// fence flushes wait out the batch its server is executing.  It runs on the
// transport the environment names, so it rides the tcp and chaos trees.
func TestFencedProgramCountersDeterministic(t *testing.T) {
	const p, runs = 6, 100
	cfg := DefaultConfig()
	cfg.Aggregation = 16
	var first Stats
	for run := 0; run < runs; run++ {
		objs := make([]*counterObj, p)
		for i := range objs {
			objs[i] = &counterObj{}
		}
		m := NewMachine(p, cfg)
		m.Execute(func(loc *Location) {
			forwardingProgram(loc, objs)
			loc.Fence()
		})
		switch s := m.Stats(); {
		case run == 0:
			first = s
			// p-1 chain hops, the batch, its forwards; one message per hop,
			// one for the batch and ONE for all its forwards.
			if reqs, msgs := int64(p-1+2*forwardingBatch), int64(p+1); s.RMIsSent != reqs || s.RMIsHandled != reqs || s.MessagesSent != msgs {
				t.Fatalf("run 0: %+v, want %d requests sent and handled in %d messages", s, reqs, msgs)
			}
		case s != first:
			t.Fatalf("run %d: stats diverge\n  run 0: %+v\n  run %d: %+v", run, first, run, s)
		}
	}
}

// The quiescence event is broadcast only to an announced waiter (waitZero,
// unpendSent), so the failure to look for is a wake-up lost between a sleeper
// announcing itself and the decrement that takes its counter to zero.  The two
// tests below hammer that window with the watchdog armed: it flags a sleeper
// left behind with nothing pending, so a lost wake-up is a FaultStall here and
// not a CI job that hangs.

// TestOneSidedFenceAfterEveryWriteNeverSleepsThrough issues 100 000 × (one
// asynchronous write, OneSidedFence): every fence sleeps on a counter that one
// handler completion takes from one to zero.
func TestOneSidedFenceAfterEveryWriteNeverSleepsThrough(t *testing.T) {
	const writes = 100000
	cfg := DefaultConfig()
	cfg.StallTimeout = 2 * time.Second
	sink := &benchSink{}
	fault := NewMachine(2, cfg).ExecuteErr(func(loc *Location) {
		h := loc.RegisterObject(sink)
		loc.Barrier()
		if loc.ID() == 0 {
			one := any(int64(1))
			for i := int64(1); i <= writes; i++ {
				loc.AsyncRMIOpSized(1, h, 8, bumpOp, one)
				loc.OneSidedFence()
				if got := sink.hits.Load(); got != i {
					t.Errorf("after fence %d the owner has applied %d writes", i, got)
					break
				}
			}
		}
		loc.Fence()
	})
	if fault != nil {
		t.Fatalf("a fence slept through its quiescence event: %v", fault)
	}
}

// TestFencedProgramNeverSleepsThrough runs the forwarding program, whose
// traffic is mostly handler-made, into a collective Fence 300 times.
func TestFencedProgramNeverSleepsThrough(t *testing.T) {
	const p, runs = 6, 300
	cfg := DefaultConfig()
	cfg.Aggregation = 16
	cfg.StallTimeout = 2 * time.Second
	for run := 0; run < runs; run++ {
		objs := make([]*counterObj, p)
		for i := range objs {
			objs[i] = &counterObj{}
		}
		fault := NewMachine(p, cfg).ExecuteErr(func(loc *Location) {
			forwardingProgram(loc, objs)
			loc.Fence()
			if got, want := objs[loc.ID()].get(), forwardingWant(loc.ID(), p); got != want {
				t.Errorf("run %d: after Fence location %d ran %d handlers, want %d", run, loc.ID(), got, want)
			}
		})
		if fault != nil {
			t.Fatalf("run %d: %v", run, fault)
		}
	}
}

// TestWatchdogFlagsASleeperWithNothingPending checks the diagnostic the two
// tests above rely on: a goroutine announced as waiting for quiescence while no
// request is pending anywhere has lost its wake-up, and the watchdog says so.
func TestWatchdogFlagsASleeperWithNothingPending(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StallTimeout = 200 * time.Millisecond
	m := NewMachine(2, cfg)
	fault := m.ExecuteErr(func(loc *Location) {
		if loc.ID() == 0 {
			// What waitZero's sleeper looks like once its broadcast is gone.
			m.quiesceWaiters.Add(1)
			defer m.quiesceWaiters.Add(-1)
			<-m.abortCh
			panic(abortSignal{})
		}
		loc.Barrier()
	})
	if fault == nil || fault.Cause.Kind != FaultStall {
		t.Fatalf("fault = %v, want a stall", fault)
	}
	assertNoRuntimeGoroutines(t)
}

// TestAbortWakesFenceQuiescenceWait lands a handler panic while every
// location sits between a fence's barriers waiting for the quiescence event.
// One request bounces between locations 1 and 2 — it alone keeps the machine
// from quiescing, and no handler ever blocks — until every location is
// draining, then a little longer so the waiters park, then panics: only the
// abort's broadcast can wake them.  The watchdog is off.
func TestAbortWakesFenceQuiescenceWait(t *testing.T) {
	const p = 4
	for _, tr := range faultTransports {
		t.Run(tr.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Transport = tr.factory
			cfg.StallTimeout = -1
			m := NewMachine(p, cfg)
			start := time.Now()
			fault := m.ExecuteErr(func(loc *Location) {
				h := loc.RegisterObject(&counterObj{})
				loc.Barrier()
				if loc.ID() == 0 {
					draining := 0 // bounces seen with every location draining
					var bounce func(any, *Location)
					bounce = func(_ any, l *Location) {
						if m.draining.Load() == p {
							draining++
						}
						if draining > 100 && l.ID() == 1 {
							panic("handler failed while the machine drains")
						}
						goruntime.Gosched()
						l.AsyncRMIUrgent(3-l.ID(), h, bounce)
					}
					loc.AsyncRMIUrgent(1, h, bounce)
				}
				loc.Fence()
				t.Errorf("location %d left a fence that never completed", loc.ID())
			})
			if elapsed := time.Since(start); elapsed > abortBudget {
				t.Fatalf("abort took %v, want < %v", elapsed, abortBudget)
			}
			if fault == nil {
				t.Fatal("ExecuteErr returned nil for a handler panic")
			}
			if fault.Cause.Kind != FaultHandlerPanic || fault.Cause.Location != 1 {
				t.Fatalf("cause = %v, want the handler panic on location 1", fault.Cause)
			}
			for i, s := range fault.Status {
				if i != 1 && s != StatusUnwound {
					t.Errorf("location %d status = %v, want unwound out of the fence", i, s)
				}
			}
			assertNoRuntimeGoroutines(t)
		})
	}
}
