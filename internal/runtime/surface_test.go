package runtime

import (
	"reflect"
	"regexp"
	"testing"
)

// TestRMISurfacePinned pins the exported RMI entry points of *Location.  All
// of them are thin wrappers over Location.issue; a new flavour is a new row
// here and a reason in DESIGN.md's RMI table, not a fourth generation of
// near-copies arriving unnoticed.
func TestRMISurfacePinned(t *testing.T) {
	want := []string{
		"AsyncRMI",
		"AsyncRMIBulk",
		"AsyncRMIBulkOp",
		"AsyncRMIOpSized",
		"AsyncRMISized",
		"AsyncRMIUrgent",
		"AsyncRMIUrgentOp",
		"ReplyOp",
		"SyncRMI",
	}
	entry := regexp.MustCompile(`^(Async|Sync|Split)RMI|^ReplyOp$`)
	var got []string
	typ := reflect.TypeOf(&Location{})
	for i := 0; i < typ.NumMethod(); i++ { // sorted by name
		if name := typ.Method(i).Name; entry.MatchString(name) {
			got = append(got, name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RMI entry points of *Location changed:\n got  %v\n want %v", got, want)
	}
}
