package runtime

import (
	"testing"

	"repro/internal/transport"
)

// Test operations registered once per process (the registry is global and
// permanent, like the container packages' own registrations).

var rawAddOp = RegisterOp("runtime-test/raw-add", transport.Int64Codec,
	func(obj any, _ *Location, v int64) { obj.(*counterObj).add(v) }, nil)

// rawGetArg carries the origin/token pair a value-returning operation needs
// to answer over a self-decoding transport, plus the object handle so the
// handler can name itself in the reply.
type rawGetArg struct {
	origin int
	token  uint64
	handle int64
}

var rawGetArgCodec = transport.Codec[rawGetArg]{
	Name: "runtime-test/raw-get-args",
	Encode: func(b *transport.Buffer, a rawGetArg) {
		b.PutVarint(int64(a.origin))
		b.PutUvarint(a.token)
		b.PutVarint(a.handle)
	},
	Decode: func(b *transport.Buffer) rawGetArg {
		return rawGetArg{
			origin: int(b.Varint()),
			token:  b.Uvarint(),
			handle: b.Varint(),
		}
	},
}

var rawGetOp OpID

func init() {
	rawGetOp = RegisterOpRet("runtime-test/raw-get", rawGetArgCodec, transport.Int64Codec,
		func(obj any, loc *Location, a rawGetArg) {
			loc.ReplyOp(a.origin, Handle(a.handle), rawGetOp, a.token, obj.(*counterObj).get())
		}, nil, nil, nil)
}

// TestOpRegistryIdentity pins the registry's naming contract: IDs are the
// FNV-64a hash of the registration name (stable across processes and
// registration order), zero is reserved for closures, and lookups agree with
// what registration returned.
func TestOpRegistryIdentity(t *testing.T) {
	if rawAddOp == 0 || rawGetOp == 0 {
		t.Fatal("registered operation got the reserved closure id 0")
	}
	if got := opIDFor("runtime-test/raw-add"); got != rawAddOp {
		t.Errorf("opIDFor = %#x, RegisterOp returned %#x", uint64(got), uint64(rawAddOp))
	}
	if id, ok := OpIDOf("runtime-test/raw-add"); !ok || id != rawAddOp {
		t.Errorf("OpIDOf = (%#x, %v), want (%#x, true)", uint64(id), ok, uint64(rawAddOp))
	}
	if _, ok := OpIDOf("runtime-test/never-registered"); ok {
		t.Error("OpIDOf found an operation that was never registered")
	}
	found := 0
	for _, name := range RegisteredOps() {
		if name == "runtime-test/raw-add" || name == "runtime-test/raw-get" {
			found++
		}
	}
	if found != 2 {
		t.Errorf("RegisteredOps lists %d of the 2 test operations", found)
	}
}

// TestOpRegistryDuplicatePanics pins the fail-fast posture: a second
// registration under an already-taken name (hence an already-taken ID) must
// panic instead of silently rebinding the operation other processes may
// already be decoding.
func TestOpRegistryDuplicatePanics(t *testing.T) {
	RegisterOp("runtime-test/dup", transport.Int64Codec,
		func(any, *Location, int64) {}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate operation registration did not panic")
		}
	}()
	RegisterOp("runtime-test/dup", transport.Int64Codec,
		func(any, *Location, int64) {}, nil)
}

// TestRawFrameExecutesWithoutSenderState is the self-decoding contract from
// the receiving end: a data frame built by hand — by a "process" that never
// created a request, never touched the rendezvous table — must reconstruct
// and execute the registered operation from its bytes alone.
func TestRawFrameExecutesWithoutSenderState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport = WireTransport
	m := NewMachine(2, cfg)
	const fromBytes = int64(41)
	objs := make([]*counterObj, 2)
	fault := m.ExecuteErr(func(loc *Location) {
		obj := &counterObj{}
		objs[loc.ID()] = obj
		h := loc.RegisterObject(obj)
		loc.Barrier()
		if loc.ID() == 0 {
			wt := m.transport.(*wireTransport)
			enc := transport.NewBuffer()
			transport.Int64Codec.Encode(enc, fromBytes)
			frame := transport.EncodeBatch(
				transport.BatchHeader{Src: 0, Dst: 1, Seq: 0, PayloadBytes: 0},
				[]transport.RequestDescriptor{{
					Handle: int32(h),
					Kind:   transport.KindAsync,
					Op:     uint64(rawAddOp),
					Arg:    enc.Bytes(),
				}})
			// The receiving side owns the request once it arrives; account it
			// like a real send so quiescence stays balanced.
			m.addPending(0, 1)
			wt.onFrame(0, 1, frame)
			wt.pendMu.Lock()
			pending := len(wt.pending)
			wt.pendMu.Unlock()
			if pending != 0 {
				t.Errorf("hand-built frame left %d rendezvous entries; self-decoding must use none", pending)
			}
		}
		loc.Fence()
	})
	if fault != nil {
		t.Fatalf("run faulted: %v", fault)
	}
	if got := objs[1].get(); got != fromBytes {
		t.Errorf("operation reconstructed from raw bytes added %d, want %d", got, fromBytes)
	}
}

// TestRawReplyFrameCompletesToken covers the other half of the self-decoding
// protocol: a KindReply frame built by hand must decode the reply value with
// the operation's return codec and route it to the origin's registered
// completion token — the only completion channel that exists across
// processes.
func TestRawReplyFrameCompletesToken(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport = WireTransport
	m := NewMachine(2, cfg)
	var tok uint64
	got := make(chan int64, 1)
	fault := m.ExecuteErr(func(loc *Location) {
		loc.Barrier()
		if loc.ID() == 0 {
			tok = loc.RegisterToken(func(v any) bool {
				got <- v.(int64)
				return true
			})
		}
		loc.Barrier()
		if loc.ID() == 1 {
			wt := m.transport.(*wireTransport)
			enc := transport.NewBuffer()
			transport.Int64Codec.Encode(enc, 1234)
			frame := transport.EncodeBatch(
				transport.BatchHeader{Src: 1, Dst: 0, Seq: 0, PayloadBytes: 0},
				[]transport.RequestDescriptor{{
					Kind:  transport.KindReply,
					Op:    uint64(rawGetOp),
					Token: tok,
					Arg:   enc.Bytes(),
				}})
			m.addPending(1, 1)
			wt.onFrame(1, 0, frame)
		}
		loc.Fence()
	})
	if fault != nil {
		t.Fatalf("run faulted: %v", fault)
	}
	select {
	case v := <-got:
		if v != 1234 {
			t.Errorf("reply token completed with %d, want 1234", v)
		}
	default:
		t.Error("hand-built reply frame never completed the registered token")
	}
}

// TestRegisteredOpsRoundTripOverWire runs the registered request AND reply
// paths end to end over the wire protocol: every cross-location interaction
// is a registered operation, so the run must complete with zero rendezvous
// fallbacks — nothing waited on sender-side state.
func TestRegisteredOpsRoundTripOverWire(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory TransportFactory
	}{
		{"reliable+wire-inproc", WireTransport},
		{"reliable+tcp", TCPLoopbackTransport},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Transport = tc.factory
			m := NewMachine(4, cfg)
			const k = 25
			fault := m.ExecuteErr(func(loc *Location) {
				obj := &counterObj{}
				h := loc.RegisterObject(obj)
				loc.Barrier()
				p := loc.NumLocations()
				for d := 0; d < p; d++ {
					if d == loc.ID() {
						continue
					}
					for i := 0; i < k; i++ {
						loc.AsyncRMIOpSized(d, h, 8, rawAddOp, int64(1))
					}
					loc.AsyncRMIUrgentOp(d, h, rawAddOp, int64(10))
					loc.AsyncRMIBulkOp(d, h, 4, 32, rawAddOp, int64(100))
				}
				loc.Fence()
				want := int64((k + 10 + 100) * (p - 1))
				if got := obj.get(); got != want {
					t.Errorf("loc %d: counter = %d, want %d", loc.ID(), got, want)
				}
				// Value-returning round trip: ask a neighbour for its counter
				// through the registered get, completion by token and reply
				// frame.
				next := (loc.ID() + 1) % p
				fut := loc.NewAbortableFuture()
				tok := loc.RegisterToken(func(v any) bool {
					fut.Complete(v)
					return true
				})
				loc.AsyncRMIUrgentOp(next, h, rawGetOp, rawGetArg{
					origin: loc.ID(), token: tok, handle: int64(h),
				})
				if got := fut.Get().(int64); got != want {
					t.Errorf("loc %d: registered get returned %d, want %d", loc.ID(), got, want)
				}
				loc.Fence()
			})
			if fault != nil {
				t.Fatalf("run faulted: %v", fault)
			}
			if ws := m.WireStats(); ws.RendezvousFallbacks != 0 {
				t.Errorf("registered-only workload took %d rendezvous fallbacks, want 0", ws.RendezvousFallbacks)
			}
		})
	}
}
