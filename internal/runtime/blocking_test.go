package runtime_test

import (
	"bytes"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/containers/parray"
	"repro/internal/runtime"
)

// Every blocking call waits the same way: a pooled record holds the result
// cell and a runtime.Waiter, the handler stores the result in place and wakes
// the caller — in process, when the owner's server is idle, on the caller's own
// goroutine before it waits.  The tests below drive each blocking flavour
// through the public container interface and check what a pooled one-waiter
// slot and a borrowed handler can get wrong: a caller the machine's abort
// unwound must not leave a slot behind that a later caller is woken through; a
// slot belongs to one call, not to a location; and a handler run by its caller
// is still its owner's — it faults as the owner, sees the owner's location and
// may block in turn.

// blockingFlavour is a blocking call a location makes on element i of location
// 1's block; read returns the element's value.  Where the flavour runs caller
// code at the owner, panics is the same call with a handler that panics.
type blockingFlavour struct {
	name   string
	read   func(loc *runtime.Location, arr *parray.Array[int64], i int64) int64
	panics func(loc *runtime.Location, arr *parray.Array[int64])
}

var blockingFlavours = []blockingFlavour{
	{name: "Get", read: func(_ *runtime.Location, arr *parray.Array[int64], i int64) int64 { return arr.Get(i) }},
	{name: "SyncRMI",
		read: func(loc *runtime.Location, arr *parray.Array[int64], i int64) int64 {
			return loc.SyncRMI(1, arr.Handle(), func(any, *runtime.Location) any { return blockingVal(i) }).(int64)
		},
		panics: func(loc *runtime.Location, arr *parray.Array[int64]) {
			loc.SyncRMI(1, arr.Handle(), func(any, *runtime.Location) any { panic("boom") })
		}},
	{name: "InvokeRet",
		read: func(_ *runtime.Location, arr *parray.Array[int64], i int64) int64 {
			return arr.ApplyGet(i, func(v int64) any { return v }).(int64)
		},
		panics: func(_ *runtime.Location, arr *parray.Array[int64]) {
			arr.ApplyGet(blockingPerLoc, func(int64) any { panic("boom") })
		}},
	{name: "GetBulk", read: func(_ *runtime.Location, arr *parray.Array[int64], i int64) int64 {
		return arr.GetBulk([]int64{i, i + 1})[0]
	}},
}

const blockingPerLoc = 64

func blockingVal(i int64) int64 { return i*7 + 3 }

type blockingTransport struct {
	name    string
	factory runtime.TransportFactory
	delay   time.Duration // RemoteDelay of every pair
	borrows bool          // a blocking call to an idle owner runs on the caller's goroutine
}

var blockingTransports = []blockingTransport{
	{"inproc", runtime.InprocTransport, 0, true},
	{"wire", runtime.WireTransport, 0, false},
	{"tcp", runtime.TCPLoopbackTransport, 0, false},
	{"inproc-delayed", runtime.InprocTransport, 20 * time.Microsecond, false},
}

func (tr blockingTransport) config() runtime.Config {
	cfg := runtime.DefaultConfig()
	cfg.Transport = tr.factory
	if tr.delay > 0 {
		cfg.RemoteDelay = func(int, int) time.Duration { return tr.delay }
	}
	return cfg
}

// TestParkedReaderUnwindsOnHandlerPanicAndMachineIsReusable parks location 0
// in each blocking flavour while a handler panics at location 1.  The panic is
// another request's: the read is issued once that handler has started, so it
// reaches a mailbox the abort interrupts and is never served.  Or (the
// own-handler rows) it is the read's own handler, sent to an idle location 1:
// in process without a RemoteDelay the reader's goroutine runs it, and the
// fault must still be location 1's, its stack going through Location.borrow
// exactly when the transport borrows.  Either way the reader must unwind, once,
// with the handler's fault on file.  The same machine then answers 10 000
// blocking reads (200 under a RemoteDelay, none quicker than it): a wake-up
// left over from the aborted run would show as a wrong value or a hang, a read
// that skipped the delay as too quick.
func TestParkedReaderUnwindsOnHandlerPanicAndMachineIsReusable(t *testing.T) {
	for _, tr := range blockingTransports {
		for _, fl := range blockingFlavours {
			t.Run(tr.name+"/"+fl.name, func(t *testing.T) { testParkedReader(t, tr, fl, false) })
			if fl.panics != nil {
				t.Run(tr.name+"/"+fl.name+"/own-handler", func(t *testing.T) { testParkedReader(t, tr, fl, true) })
			}
		}
	}
}

func testParkedReader(t *testing.T, tr blockingTransport, fl blockingFlavour, own bool) {
	m := runtime.NewMachine(2, tr.config())
	var poison atomic.Bool
	poison.Store(true)
	reads := int64(10000)
	if tr.delay > 0 {
		reads = 200 // a delayed read sleeps for a timer tick or more
	}
	body := func(loc *runtime.Location) {
		arr := parray.New[int64](loc, 2*blockingPerLoc)
		arr.UpdateLocal(func(gid int64, _ int64) int64 { return blockingVal(gid) })
		loc.Fence()
		if loc.ID() == 0 && poison.Load() {
			if own {
				for !runtime.ServerIdle(loc.Machine().Location(1)) {
					goruntime.Gosched()
				}
				fl.panics(loc, arr)
			} else {
				started := make(chan struct{})
				loc.AsyncRMIUrgent(1, arr.Handle(), func(any, *runtime.Location) {
					close(started)
					for i := 0; i < 100; i++ {
						goruntime.Gosched() // let the reader park first
					}
					panic("boom")
				})
				<-started
				fl.read(loc, arr, blockingPerLoc)
			}
			t.Error("a read whose answer died with a panicking handler returned")
		}
		if loc.ID() == 0 {
			for k := int64(0); k < reads; k++ {
				i := blockingPerLoc + k%(blockingPerLoc-1)
				start := time.Now()
				got := fl.read(loc, arr, i)
				if took := time.Since(start); got != blockingVal(i) || took < tr.delay {
					t.Errorf("read %d of element %d = %d in %v, want %d in %v or more", k, i, got, took, blockingVal(i), tr.delay)
					break
				}
			}
		}
		loc.Fence()
	}
	fault := m.ExecuteErr(body)
	if fault == nil {
		t.Fatal("panicking handler produced no fault")
	}
	if fault.Cause.Kind != runtime.FaultHandlerPanic || fault.Cause.Location != 1 {
		t.Fatalf("cause = %v, want handler panic at location 1", fault.Cause)
	}
	for _, f := range fault.Faults {
		if f.Location == 0 {
			t.Fatalf("the reader faulted (%v) instead of unwinding", f)
		}
	}
	if fault.Status[0] != runtime.StatusUnwound {
		t.Fatalf("parked reader status = %v, want unwound", fault.Status[0])
	}
	if borrowed := bytes.Contains(fault.Cause.Stack, []byte("runtime.(*Location).borrow(")); own && borrowed != tr.borrows {
		t.Fatalf("panicking handler ran on the reader's goroutine: %v, want %v; stack:\n%s", borrowed, tr.borrows, fault.Cause.Stack)
	}
	runtime.AssertNoRuntimeGoroutines(t)
	poison.Store(false)
	if fault := m.ExecuteErr(body); fault != nil {
		t.Fatalf("machine not reusable after the aborted read: %v", fault)
	}
	runtime.AssertNoRuntimeGoroutines(t)
}

// TestConcurrentBlockingReadsOfOneOwner has eight goroutines on every location,
// and a handler, read location 1's elements at the same time through every
// blocking flavour, checking every value: the completion slot is per call, and
// the owner's in-place write happens before the reader's load (run under
// -race).  Over the wire the value arrives through the token callback instead.
// The handler, on location 2's server, reads location 1 directly or (the ring
// rows) around the ring 2 → 0 → 1: the handler of its SyncRMI to location 0
// issues the SyncRMI to location 1, each hop on the goroutine of the one before
// when its location is idle.
func TestConcurrentBlockingReadsOfOneOwner(t *testing.T) {
	const p, readers, rounds = 3, 8, 200
	for _, tr := range blockingTransports[:2] {
		for _, hr := range []struct {
			suffix string
			path   []int
		}{{"", []int{1}}, {"/ring", []int{0, 1}}} {
			t.Run(tr.name+hr.suffix, func(t *testing.T) {
				runtime.NewMachine(p, tr.config()).Execute(func(loc *runtime.Location) {
					arr := parray.New[int64](loc, p*blockingPerLoc)
					arr.UpdateLocal(func(gid int64, _ int64) int64 { return blockingVal(gid) })
					loc.Fence()
					var wg sync.WaitGroup
					if loc.ID() == 0 {
						wg.Add(1)
						loc.AsyncRMIUrgent(2, arr.Handle(), func(_ any, hl *runtime.Location) {
							defer wg.Done()
							for k := int64(0); k < rounds; k++ {
								if got, want := readAlong(hl, arr.Handle(), hr.path, k), alongVal(hr.path, k); got != want {
									t.Errorf("handler-issued read %d along %v = %d, want %d", k, hr.path, got, want)
								}
							}
						})
					}
					for g := 0; g < readers; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							for k := 0; k < rounds; k++ {
								fl := blockingFlavours[(g+k)%len(blockingFlavours)]
								i := int64(blockingPerLoc + (g*rounds+k)%(blockingPerLoc-1))
								if got := fl.read(loc, arr, i); got != blockingVal(i) {
									t.Errorf("location %d reader %d: %s of element %d = %d, want %d", loc.ID(), g, fl.name, i, got, blockingVal(i))
									return
								}
							}
						}(g)
					}
					wg.Wait()
					loc.Fence()
				})
			})
		}
	}
}

// readAlong reads blockingVal(k) at the last location of path, one SyncRMI per
// location, each issued by the handler before it.  Every handler appends the
// ID of the location it was handed as a decimal digit, so the value shows a
// handler that saw any location but its own.
func readAlong(loc *runtime.Location, h runtime.Handle, path []int, k int64) int64 {
	if len(path) == 0 {
		return blockingVal(k)
	}
	return loc.SyncRMI(path[0], h, func(_ any, hl *runtime.Location) any {
		return readAlong(hl, h, path[1:], k)*10 + int64(hl.ID())
	}).(int64)
}

// alongVal is what readAlong returns when every handler saw its own location.
func alongVal(path []int, k int64) int64 {
	v := blockingVal(k)
	for i := len(path) - 1; i >= 0; i-- {
		v = v*10 + int64(path[i])
	}
	return v
}
