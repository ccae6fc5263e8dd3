package repro

import (
	"fmt"
	"testing"

	"repro/internal/containers/parray"
	"repro/internal/runtime"
)

// TestRemoteReadSeesPrecedingWrite writes an element of location 1 from
// location 0 and reads it straight back, 200 000 times, checking every value:
// the paper's relaxed model completes a write by a later read of the same
// element from the same location, which the runtime owes to per-pair FIFO
// order.  The write is asynchronous and takes location 1's mailbox, the read
// is blocking and runs on location 0's goroutine when location 1's server is
// idle (DESIGN.md §1, "How a blocking call waits").  An empty mailbox does not
// make the server idle: it may hold the batch with the write and not have run
// it yet, and a read served then sees the old value.  That window is narrow;
// the race detector's scheduling reaches it, so CI runs this test under -race
// several times.  Aggregation 1 sends every write as a message of its own, 16
// buffers it until the read flushes it.
func TestRemoteReadSeesPrecedingWrite(t *testing.T) {
	const perLoc, rounds = 64, 200_000
	for _, agg := range []int{1, 16} {
		t.Run(fmt.Sprintf("aggregation=%d", agg), func(t *testing.T) {
			cfg := runtime.DefaultConfig()
			cfg.Aggregation = agg
			cfg.Transport = runtime.InprocTransport // the only transport that serves a read on its caller's goroutine
			runtime.NewMachine(2, cfg).Execute(func(loc *runtime.Location) {
				arr := parray.New[int64](loc, 2*perLoc)
				loc.Fence()
				if loc.ID() == 0 {
					stale := 0
					for k := int64(1); k <= rounds; k++ {
						i := perLoc + k%perLoc
						arr.Set(i, k)
						if got := arr.Get(i); got != k {
							if stale == 0 {
								t.Errorf("round %d: Get(%d) = %d right after Set(%d, %d)", k, i, got, i, k)
							}
							stale++
						}
					}
					if stale != 0 {
						t.Errorf("%d of %d reads missed the write before them", stale, rounds)
					}
				}
				loc.Fence()
			})
		})
	}
}
