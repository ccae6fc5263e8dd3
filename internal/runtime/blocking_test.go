package runtime_test

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/containers/parray"
	"repro/internal/runtime"
)

// Every blocking call waits the same way: a pooled record holds the result
// cell and a runtime.Waiter, the handler stores the result in place and wakes
// the caller.  The tests below drive each blocking flavour through the public
// container interface and check the two things a pooled one-waiter slot can
// get wrong: a caller the machine's abort unwound must not leave a slot behind
// that a later caller is woken through, and a slot belongs to one call, not to
// a location.

// blockingFlavours are the blocking calls a location makes on element i of
// location 1's block.  Each returns the element's value.
var blockingFlavours = []struct {
	name string
	read func(loc *runtime.Location, arr *parray.Array[int64], i int64) int64
}{
	{"Get", func(_ *runtime.Location, arr *parray.Array[int64], i int64) int64 { return arr.Get(i) }},
	{"SyncRMI", func(loc *runtime.Location, arr *parray.Array[int64], i int64) int64 {
		return loc.SyncRMI(1, arr.Handle(), func(any, *runtime.Location) any { return blockingVal(i) }).(int64)
	}},
	{"InvokeRet", func(_ *runtime.Location, arr *parray.Array[int64], i int64) int64 {
		return arr.ApplyGet(i, func(v int64) any { return v }).(int64)
	}},
	{"GetBulk", func(_ *runtime.Location, arr *parray.Array[int64], i int64) int64 {
		return arr.GetBulk([]int64{i, i + 1})[0]
	}},
}

const blockingPerLoc = 64

func blockingVal(i int64) int64 { return i*7 + 3 }

var blockingTransports = []struct {
	name    string
	factory runtime.TransportFactory
}{
	{"inproc", runtime.InprocTransport},
	{"wire", runtime.WireTransport},
	{"tcp", runtime.TCPLoopbackTransport},
}

// TestParkedReaderUnwindsOnHandlerPanicAndMachineIsReusable parks location 0
// in each blocking flavour while a handler is about to panic at location 1: the
// read's request is issued once that handler has started, so it reaches a
// mailbox the abort interrupts and is never served.  The reader must unwind
// with the handler's fault on file.  The same machine then answers
// 10 000 blocking reads: a wake-up left over from the aborted run would show
// as a wrong value or a hang.
func TestParkedReaderUnwindsOnHandlerPanicAndMachineIsReusable(t *testing.T) {
	for _, tr := range blockingTransports {
		for _, fl := range blockingFlavours {
			t.Run(tr.name+"/"+fl.name, func(t *testing.T) {
				cfg := runtime.DefaultConfig()
				cfg.Transport = tr.factory
				m := runtime.NewMachine(2, cfg)
				var poison atomic.Bool
				poison.Store(true)
				const reads = 10000
				body := func(loc *runtime.Location) {
					arr := parray.New[int64](loc, 2*blockingPerLoc)
					arr.UpdateLocal(func(gid int64, _ int64) int64 { return blockingVal(gid) })
					loc.Fence()
					if loc.ID() == 0 && poison.Load() {
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
						t.Error("a read behind a panicking handler returned")
					}
					if loc.ID() == 0 {
						for k := int64(0); k < reads; k++ {
							i := blockingPerLoc + k%(blockingPerLoc-1)
							if got := fl.read(loc, arr, i); got != blockingVal(i) {
								t.Errorf("read %d of element %d = %d, want %d", k, i, got, blockingVal(i))
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
				if fault.Status[0] != runtime.StatusUnwound {
					t.Fatalf("parked reader status = %v, want unwound", fault.Status[0])
				}
				runtime.AssertNoRuntimeGoroutines(t)
				poison.Store(false)
				if fault := m.ExecuteErr(body); fault != nil {
					t.Fatalf("machine not reusable after the aborted read: %v", fault)
				}
				runtime.AssertNoRuntimeGoroutines(t)
			})
		}
	}
}

// TestConcurrentBlockingReadsOfOneOwner has eight goroutines on every location,
// and a handler, read location 1's elements at the same time through every
// blocking flavour, checking every value: the completion slot is per call, and
// the owner's in-place write happens before the reader's load (run under
// -race).  Over the wire the value arrives through the token callback instead.
func TestConcurrentBlockingReadsOfOneOwner(t *testing.T) {
	const p, readers, rounds = 3, 8, 200
	for _, tr := range blockingTransports[:2] {
		t.Run(tr.name, func(t *testing.T) {
			cfg := runtime.DefaultConfig()
			cfg.Transport = tr.factory
			runtime.NewMachine(p, cfg).Execute(func(loc *runtime.Location) {
				arr := parray.New[int64](loc, p*blockingPerLoc)
				arr.UpdateLocal(func(gid int64, _ int64) int64 { return blockingVal(gid) })
				loc.Fence()
				var wg sync.WaitGroup
				if loc.ID() == 0 {
					// Location 2's server reads location 1 while its own
					// goroutines do.
					wg.Add(1)
					loc.AsyncRMIUrgent(2, arr.Handle(), func(_ any, hl *runtime.Location) {
						defer wg.Done()
						for k := int64(0); k < rounds; k++ {
							got := hl.SyncRMI(1, arr.Handle(), func(any, *runtime.Location) any { return blockingVal(k) })
							if got.(int64) != blockingVal(k) {
								t.Errorf("handler-issued SyncRMI %d = %v, want %d", k, got, blockingVal(k))
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
