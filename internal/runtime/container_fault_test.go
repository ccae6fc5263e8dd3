package runtime_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/containers/parray"
	"repro/internal/runtime"
)

// TestClosureReadUnblocksOnHandlerPanic parks a location in a closure-path
// synchronous container read (ApplyGet → InvokeRet) whose remote action
// panics.  The reader's future must be wired to the machine abort like the
// registered read path's: the run returns at once with the reader unwound,
// instead of holding ExecuteErr for the abort grace period and leaking the
// blocked goroutine.
func TestClosureReadUnblocksOnHandlerPanic(t *testing.T) {
	m := runtime.NewMachine(2, runtime.DefaultConfig())
	start := time.Now()
	fault := m.ExecuteErr(func(loc *runtime.Location) {
		pa := parray.New[int64](loc, 100)
		if loc.ID() == 0 {
			pa.ApplyGet(99, func(int64) any { panic("boom") })
		}
		loc.Fence()
	})
	elapsed := time.Since(start)
	if fault == nil {
		t.Fatal("panicking remote action produced no fault")
	}
	if fault.Cause.Kind != runtime.FaultHandlerPanic || fault.Cause.Location != 1 {
		t.Fatalf("cause = %v, want handler panic at location 1", fault.Cause)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("blocked reader held the abort for %v", elapsed)
	}
	if fault.Status[0] != runtime.StatusUnwound {
		t.Fatalf("blocked reader status = %v, want unwound", fault.Status[0])
	}
	if !strings.Contains(fault.Error(), "1 unwound") {
		t.Fatalf("fault does not report the reader unwound: %v", fault)
	}
	runtime.AssertNoRuntimeGoroutines(t)
}
