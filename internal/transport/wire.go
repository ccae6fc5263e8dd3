package transport

import "time"

// DeliverFunc receives one frame on the destination side of a wire.  src and
// dst are the endpoints named by the matching Send.  Implementations of Wire
// may invoke it from arbitrary goroutines; per-pair ordering is only
// guaranteed by the Reliable wrapper, never by a raw Wire.
//
// The frame obeys the ownership contract of Wire.Send: it will never be
// written again, by anybody, so the receiver may keep it and may decode it in
// place — DecodeBatch and the reliable envelope hand out views into it — for
// as long as it likes.  The receiver must not write it either: over an
// in-process wire it is the very slice the sender passed to Send.
type DeliverFunc func(src, dst int, frame []byte)

// Wire is a best-effort frame pipe between n integer-numbered endpoints.
//
//	Send    — queue one frame for delivery from src to dst (never blocks on
//	          the receiver)
//	Drain   — block until every queued frame has left the sender (flushed
//	          to the socket / handed to the deliver callback).  Reliable's
//	          Drain promises more: it sends every acknowledgement this side
//	          owes, then returns once every frame sent before the call was
//	          acknowledged — delivered, in order, exactly once
//	Close   — release sockets, queues and goroutines; Send afterwards is a
//	          silent drop
//
// A raw Wire makes NO ordering, uniqueness or delivery guarantee: the chaos
// wrapper deliberately delays, duplicates and drops frames.  Layer Reliable
// on top to restore per-pair FIFO exactly-once delivery.
//
// Ownership.  A frame is IMMUTABLE from the moment it is passed to Send:
// neither the caller nor any layer below may write its bytes again, and nobody
// recycles it — a frame's storage is the garbage collector's alone.  Every
// layer leans on that: the caller may pass one slice to Send many times; a
// wire may hold a frame for as long as it likes (Reliable keeps it for
// retransmission, Chaos to duplicate and delay it, TCP in its write queue) and
// may deliver the same slice more than once; a receiver may alias it forever
// (see DeliverFunc) and may pass a delivered frame on to Send.  So pool what
// never leaves a call — encode scratch, descriptor slices — never a frame.
type Wire interface {
	// Start installs the deliver callback and brings up the receive side.
	// It must be called exactly once, before the first Send.
	Start(deliver DeliverFunc) error
	Send(src, dst int, frame []byte)
	Drain()
	Close() error
	// Name identifies the wire stack (for stats and bench reports).
	Name() string
}

// WireStats aggregates counters across a wire stack; each layer fills the
// fields it owns and adds its inner wire's counters.
type WireStats struct {
	// Frame traffic (TCP / inproc layer).
	FramesSent     int64
	FramesReceived int64
	BytesSent      int64
	BytesReceived  int64
	Connections    int64
	// DialRetries counts dial attempts that failed and were retried with
	// backoff before a connection came up (TCP layer).
	DialRetries int64
	// Reliability protocol (Reliable layer).
	DataFrames        int64 // data frames first-sent (retransmits excluded)
	Acks              int64 // stand-alone ack frames sent (acknowledgements riding on data frames are not counted)
	Retransmits       int64 // data frames re-sent after a reconnect signal
	DuplicatesDropped int64 // received data frames discarded as duplicates
	OutOfOrder        int64 // received data frames buffered for reordering
	// RendezvousFallbacks counts requests that crossed the wire as bare
	// descriptors because their operation was an unregistered closure, so
	// the batch had to rendezvous with sender-side state (runtime adapter
	// layer).  Zero means every request was self-decoding.
	RendezvousFallbacks int64
	// Fault injection (Chaos layer).
	Delayed    int64
	Duplicated int64
	Dropped    int64
	Reconnects int64
}

// Add accumulates another set of counters: an inner layer's into its
// wrapper's, or one process's into the job-wide totals of a multi-process
// run.
func (s *WireStats) Add(o WireStats) {
	s.FramesSent += o.FramesSent
	s.FramesReceived += o.FramesReceived
	s.BytesSent += o.BytesSent
	s.BytesReceived += o.BytesReceived
	s.Connections += o.Connections
	s.DialRetries += o.DialRetries
	s.DataFrames += o.DataFrames
	s.Acks += o.Acks
	s.Retransmits += o.Retransmits
	s.DuplicatesDropped += o.DuplicatesDropped
	s.OutOfOrder += o.OutOfOrder
	s.RendezvousFallbacks += o.RendezvousFallbacks
	s.Delayed += o.Delayed
	s.Duplicated += o.Duplicated
	s.Dropped += o.Dropped
	s.Reconnects += o.Reconnects
}

// StatsSource is implemented by wires that report traffic counters.
type StatsSource interface {
	WireStats() WireStats
}

// innerStats reads the counters of a wrapped wire, if it exposes any.
func innerStats(w Wire) WireStats {
	if s, ok := w.(StatsSource); ok {
		return s.WireStats()
	}
	return WireStats{}
}

// reconnectSignaler is implemented by wires that can signal a connection
// drop for a (src, dst) pair (the chaos wrapper).  The Reliable layer
// registers a handler and retransmits unacknowledged frames of the pair.
type reconnectSignaler interface {
	OnReconnect(fn func(src, dst int))
}

// TimedDrainer is implemented by wires whose drain can fail (a peer that
// never acknowledges): DrainErr bounds the wait and returns a diagnostic
// error instead of panicking, so the runtime can surface a wire failure as a
// structured fault.  Wrappers delegate to their inner wire's DrainErr.
type TimedDrainer interface {
	DrainErr(timeout time.Duration) error
}

// ErrorSink is implemented by wires that can report asynchronous failures
// (dial exhaustion, a peer resetting a connection mid-write) to an installed
// callback instead of panicking from an internal goroutine.  With no sink
// installed, such failures still panic — the pre-containment behaviour.
// Wrappers forward the registration to their inner wire.
type ErrorSink interface {
	OnWireError(fn func(err error))
}
