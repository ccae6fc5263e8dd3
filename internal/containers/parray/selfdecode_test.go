package parray

import (
	"testing"

	"repro/internal/runtime"
)

// TestElemOpsRegisteredForCodecTypes pins that every built-in pArray element
// operation — set, get, bulk-set, bulk-get — is registered under its stable
// name for codec-backed element types, so a cooperating process can resolve
// the same IDs from the shared binary alone.  (That they then cross a wire as
// bytes is pinned for every family by the root package's
// TestElementTrafficSelfDecodesAcrossWire.)
func TestElemOpsRegisteredForCodecTypes(t *testing.T) {
	o := elemOpsFor[int64]()
	for _, name := range []string{"parray[int64]/set", "parray[int64]/get", "parray[int64]/bulk-set", "parray[int64]/bulk-get"} {
		if id, ok := runtime.OpIDOf(name); !ok || id == 0 {
			t.Errorf("operation %q not registered (id %#x, ok %v)", name, uint64(id), ok)
		}
	}
	// The per-type cache must return the same registration, not re-register
	// (a second registration would panic on the duplicate name).
	if again := elemOpsFor[int64](); again != o {
		t.Error("elemOpsFor re-registered instead of reusing the cached ops")
	}
}
