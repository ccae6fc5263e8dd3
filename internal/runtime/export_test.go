package runtime

import "testing"

// AssertNoRuntimeGoroutines exposes the leak check to the external test
// package, whose tests drive the runtime through the containers.
func AssertNoRuntimeGoroutines(t *testing.T) {
	t.Helper()
	assertNoRuntimeGoroutines(t)
}
