package runtime

import (
	"testing"

	"repro/internal/transport"
)

// AssertNoRuntimeGoroutines exposes the leak check to the external test
// package, whose tests drive the runtime through the containers.
func AssertNoRuntimeGoroutines(t *testing.T) {
	t.Helper()
	assertNoRuntimeGoroutines(t)
}

// ServerIdle reports whether l's server sleeps with nothing queued: on the
// in-process transport a blocking call to l issued now runs on its issuer's
// goroutine.
func ServerIdle(l *Location) bool { return l.inbox.idle() }

// TappedWireTransport is WireTransport with tap shown every batch frame on its
// way into the reliable layer, so an external test can collect what the
// containers really put on a wire.
func TappedWireTransport(tap func(frame []byte)) TransportFactory {
	return func(m *Machine) Transport {
		n := m.NumLocations()
		return newWireTransport(m, tappedWire{transport.NewReliable(transport.NewInproc(n), n), tap})
	}
}

type tappedWire struct {
	transport.Wire
	tap func(frame []byte)
}

func (w tappedWire) Send(src, dst int, frame []byte) {
	w.tap(frame)
	w.Wire.Send(src, dst, frame)
}

// OpWireCodecs returns the marshalling of a registered operation exactly as
// the wire adapter calls it: the argument codec and the reply codec, type
// erased.  A by-reference operation has neither; an operation without a reply
// has no reply codec (their Encode is nil).
func OpWireCodecs(id uint64) (name string, arg, reply transport.Codec[any]) {
	e := opByID(OpID(id))
	return e.name,
		transport.Codec[any]{Name: e.name + "-args", Encode: e.encode, Decode: e.decode},
		transport.Codec[any]{Name: e.name + "-ret", Encode: e.encodeRet, Decode: e.decodeRet}
}
