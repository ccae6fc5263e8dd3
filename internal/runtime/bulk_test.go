package runtime

import (
	"sync"
	"testing"
)

// seqObj records the order in which operations reach it.
type seqObj struct {
	mu  sync.Mutex
	log []int64
}

func (s *seqObj) append(v int64) {
	s.mu.Lock()
	s.log = append(s.log, v)
	s.mu.Unlock()
}

func TestAsyncRMIBulkDeliversWholeBatchAsOneMessage(t *testing.T) {
	m := NewMachine(2, DefaultConfig())
	m.Execute(func(loc *Location) {
		obj := &seqObj{}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		if loc.ID() == 0 {
			vals := []int64{1, 2, 3, 4, 5}
			loc.AsyncRMIBulk(1, h, len(vals), 8*len(vals), func(o any, _ *Location) {
				for _, v := range vals {
					o.(*seqObj).append(v)
				}
			})
		}
		loc.Fence()
		if loc.ID() == 1 {
			if len(obj.log) != 5 {
				t.Errorf("bulk batch delivered %d ops, want 5", len(obj.log))
			}
		}
	})
	s := m.Stats()
	if s.BulkRMIs != 1 {
		t.Errorf("BulkRMIs = %d, want 1", s.BulkRMIs)
	}
	if s.BulkOps != 5 {
		t.Errorf("BulkOps = %d, want 5", s.BulkOps)
	}
}

// TestBulkFIFOWithBufferedAndUrgentTraffic pins the ordering guarantee the
// containers' consistency model relies on: per (source, destination) pair,
// buffered per-element requests, bulk batches, urgent requests and
// synchronous requests all execute in invocation order, because every
// flavour that bypasses the aggregation buffer flushes it first.
func TestBulkFIFOWithBufferedAndUrgentTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Aggregation = 8 // keep per-element requests buffered between flushes
	m := NewMachine(2, cfg)
	const rounds = 50
	m.Execute(func(loc *Location) {
		obj := &seqObj{}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		if loc.ID() == 0 {
			next := int64(0)
			emit := func() int64 { v := next; next++; return v }
			for r := 0; r < rounds; r++ {
				// A few buffered per-element requests (fewer than the
				// aggregation factor, so they sit in the buffer)...
				for i := 0; i < 3; i++ {
					v := emit()
					loc.AsyncRMI(1, h, func(o any, _ *Location) { o.(*seqObj).append(v) })
				}
				// ...then a bulk batch that must not overtake them...
				vals := []int64{emit(), emit(), emit()}
				loc.AsyncRMIBulk(1, h, len(vals), 8*len(vals), func(o any, _ *Location) {
					for _, v := range vals {
						o.(*seqObj).append(v)
					}
				})
				// ...more buffered traffic...
				for i := 0; i < 2; i++ {
					v := emit()
					loc.AsyncRMI(1, h, func(o any, _ *Location) { o.(*seqObj).append(v) })
				}
				// ...an urgent request...
				{
					v := emit()
					loc.AsyncRMIUrgent(1, h, func(o any, _ *Location) { o.(*seqObj).append(v) })
				}
				// ...and a synchronous request closing the round.
				{
					v := emit()
					loc.SyncRMI(1, h, func(o any, _ *Location) any {
						o.(*seqObj).append(v)
						return v
					})
				}
			}
		}
		loc.Fence()
		if loc.ID() == 1 {
			want := int64(rounds * 10)
			if int64(len(obj.log)) != want {
				t.Fatalf("received %d ops, want %d", len(obj.log), want)
			}
			for i, v := range obj.log {
				if v != int64(i) {
					t.Fatalf("op %d carried %d: FIFO order violated across bulk/urgent/sync interleaving", i, v)
				}
			}
		}
	})
}

// TestHandleTableSnapshotUnderChurn exercises the copy-on-write handle table:
// lookups through RMIs must keep resolving while other handles register and
// unregister concurrently.
func TestHandleTableSnapshotUnderChurn(t *testing.T) {
	m := NewMachine(2, DefaultConfig())
	m.Execute(func(loc *Location) {
		stable := &seqObj{}
		h := loc.RegisterObject(stable)
		loc.Barrier()
		if loc.ID() == 0 {
			for i := 0; i < 200; i++ {
				v := int64(i)
				loc.AsyncRMI(1, h, func(o any, _ *Location) { o.(*seqObj).append(v) })
			}
		} else {
			// Churn the registry while traffic resolves the stable handle.
			for i := 0; i < 200; i++ {
				tmp := loc.RegisterObject(&seqObj{})
				loc.UnregisterObject(tmp)
			}
		}
		loc.Fence()
		if loc.ID() == 1 && len(stable.log) != 200 {
			t.Errorf("stable object received %d ops, want 200", len(stable.log))
		}
	})
}

func TestSyncAndUrgentAccountBytes(t *testing.T) {
	m := NewMachine(2, DefaultConfig())
	m.Execute(func(loc *Location) {
		obj := &seqObj{}
		h := loc.RegisterObject(obj)
		loc.Barrier()
		if loc.ID() == 0 {
			loc.SyncRMI(1, h, func(o any, _ *Location) any { return int64(7) })
			loc.AsyncRMIUrgent(1, h, func(o any, _ *Location) {})
		}
		loc.Fence()
	})
	s := m.Stats()
	// Each flavour accounts at least the request descriptor; sync also
	// accounts its response payload.
	want := int64(2*requestOverheadBytes + 8)
	if s.BytesSimulated < want {
		t.Errorf("BytesSimulated = %d, want >= %d (sync/urgent must feed byte accounting)", s.BytesSimulated, want)
	}
}
