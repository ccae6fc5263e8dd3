package transport

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Reliable restores the delivery guarantees the runtime's RMI semantics
// need — per-(source, destination) FIFO order and exactly-once delivery —
// on top of a Wire that may delay, duplicate or (after a signalled
// connection drop) lose frames:
//
//   - every data frame carries a per-pair sequence number and is kept by
//     the sender until acknowledged;
//   - the receiver delivers strictly in sequence order, buffering frames
//     that arrive early and discarding duplicates;
//   - the receiver acknowledges cumulatively; acknowledged frames are
//     released from the retransmit buffer;
//   - when the wire signals a reconnect for a pair, every unacknowledged
//     frame of the pair is retransmitted in order.
//
// Acknowledgements and retransmissions are control traffic (FrameAck /
// re-sent FrameData); the chaos wrapper injects faults into first-class
// data frames only, which is what makes the protocol's drain terminate.
type Reliable struct {
	inner   Wire
	n       int
	deliver DeliverFunc

	send []relSend
	recv []relRecv

	dataFrames  atomic.Int64
	acks        atomic.Int64
	retransmits atomic.Int64
	dupDropped  atomic.Int64
	outOfOrder  atomic.Int64
}

type relSend struct {
	mu   sync.Mutex
	next uint64
	// The retransmit window: sequences are dense per pair, so the outer frames
	// of [base, next) sit in sequence order in window[head:].  A cumulative ack
	// pops a prefix and a resend round walks what is left.
	base   uint64
	window [][]byte
	head   int
	// resending/resendAgain coalesce reconnect signals into sequential
	// resend rounds: a signal arriving while a round is in flight marks the
	// pair dirty instead of starting a concurrent round.  Without this,
	// k drops during one round launch k full retransmissions of the whole
	// unacked set, each multiplying the drop count again — a retransmit
	// storm that grows exponentially under a slow (TCP) wire.
	resending   bool
	resendAgain bool
}

type relRecv struct {
	mu       sync.Mutex
	expected uint64
	pending  map[uint64][]byte // early inner frames by sequence number
}

// NewReliable wraps inner with the ordered exactly-once protocol for n
// endpoints.
func NewReliable(inner Wire, n int) *Reliable {
	return &Reliable{
		inner: inner,
		n:     n,
		send:  make([]relSend, n*n),
		recv:  make([]relRecv, n*n),
	}
}

// Start brings up the inner wire and registers for reconnect signals.
func (r *Reliable) Start(deliver DeliverFunc) error {
	r.deliver = deliver
	if err := r.inner.Start(r.onFrame); err != nil {
		return err
	}
	if rs, ok := r.inner.(reconnectSignaler); ok {
		rs.OnReconnect(r.resendUnacked)
	}
	return nil
}

// OnWireError forwards asynchronous-failure reporting to the inner wire
// (ErrorSink); the reliable layer itself fails only through Drain.
func (r *Reliable) OnWireError(fn func(err error)) {
	if es, ok := r.inner.(ErrorSink); ok {
		es.OnWireError(fn)
	}
}

func (r *Reliable) pair(src, dst int) int { return src*r.n + dst }

// Send assigns the frame its sequence number, files it for retransmission
// and ships it.
func (r *Reliable) Send(src, dst int, frame []byte) {
	s := &r.send[r.pair(src, dst)]
	s.mu.Lock()
	seq := s.next
	s.next++
	outer := encodeRelData(seq, frame)
	s.window = append(s.window, outer)
	s.mu.Unlock()
	r.dataFrames.Add(1)
	r.inner.Send(src, dst, outer)
}

// onFrame handles a frame arriving from the inner wire.
func (r *Reliable) onFrame(src, dst int, frame []byte) {
	if len(frame) == 0 {
		panic("transport: reliable received an empty frame")
	}
	switch frame[0] {
	case FrameData:
		r.onData(src, dst, frame)
	case FrameAck:
		r.onAck(frame)
	default:
		panic(fmt.Sprintf("transport: reliable received unknown frame kind 0x%02x", frame[0]))
	}
}

func (r *Reliable) onData(src, dst int, frame []byte) {
	seq, inner, err := decodeRelData(frame)
	if err != nil {
		panic(fmt.Sprintf("transport: corrupt data frame from %d to %d: %v", src, dst, err))
	}
	rv := &r.recv[r.pair(src, dst)]
	rv.mu.Lock()
	_, buffered := rv.pending[seq]
	switch {
	case seq < rv.expected || buffered:
		r.dupDropped.Add(1)
	default:
		if rv.pending == nil {
			rv.pending = make(map[uint64][]byte)
		}
		if seq != rv.expected {
			r.outOfOrder.Add(1)
		}
		rv.pending[seq] = inner
		// Deliver the in-order run that is now available.  Holding the
		// pair's receive lock across the callbacks serialises delivery, so
		// two wire goroutines cannot reorder consecutive frames.
		for {
			next, ok := rv.pending[rv.expected]
			if !ok {
				break
			}
			delete(rv.pending, rv.expected)
			rv.expected++
			r.deliver(src, dst, next)
		}
	}
	cum := rv.expected
	rv.mu.Unlock()
	if cum > 0 {
		// Cumulative acknowledgement (also re-sent for duplicates, in case
		// an earlier ack raced a retransmission).
		r.acks.Add(1)
		r.inner.Send(dst, src, EncodeAck(src, dst, cum-1))
	}
}

func (r *Reliable) onAck(frame []byte) {
	src, dst, cum, err := DecodeAck(frame)
	if err != nil {
		panic(fmt.Sprintf("transport: corrupt ack frame: %v", err))
	}
	s := &r.send[r.pair(src, dst)]
	s.mu.Lock()
	s.release(cum)
	s.mu.Unlock()
}

// unacked returns the pair's unacknowledged outer frames in sequence order (a
// view of the window; the caller holds mu).
func (s *relSend) unacked() [][]byte { return s.window[s.head:] }

// release drops every frame with sequence <= cum from the window.  A duplicate
// or stale ack (cum below the window) releases nothing.  The caller holds mu.
func (s *relSend) release(cum uint64) {
	if cum < s.base {
		return
	}
	pop := len(s.unacked())
	if n := cum - s.base + 1; n < uint64(pop) {
		pop = int(n)
	}
	clear(s.window[s.head : s.head+pop]) // an acknowledged frame is garbage to the sender
	s.base += uint64(pop)
	s.head += pop
	// Reuse the storage: at once when the window emptied (the steady state),
	// by sliding the rest down when more than half of it is dead.
	if s.head > len(s.window)/2 {
		n := copy(s.window, s.unacked())
		clear(s.window[n:])
		s.window, s.head = s.window[:n], 0
	}
}

// resendSettle is the pause before each resend round, giving in-flight
// acknowledgements a moment to land so a round only re-sends what is
// genuinely still missing.
const resendSettle = 100 * time.Microsecond

// resendUnacked retransmits the unacknowledged frames of the pair in
// sequence order (the reconnect handler).  Frames that were delivered in
// the meantime are discarded as duplicates by the receiver.  Rounds are
// sequential per pair: signals arriving mid-round coalesce into one
// follow-up round (see relSend).
func (r *Reliable) resendUnacked(src, dst int) {
	s := &r.send[r.pair(src, dst)]
	s.mu.Lock()
	if s.resending {
		s.resendAgain = true
		s.mu.Unlock()
		return
	}
	s.resending = true
	s.mu.Unlock()
	for {
		time.Sleep(resendSettle)
		s.mu.Lock()
		frames := slices.Clone(s.unacked())
		s.mu.Unlock()
		r.retransmits.Add(int64(len(frames)))
		for _, f := range frames {
			r.inner.Send(src, dst, f)
		}
		s.mu.Lock()
		if !s.resendAgain {
			s.resending = false
			s.mu.Unlock()
			return
		}
		s.resendAgain = false
		s.mu.Unlock()
	}
}

// drainTimeout bounds how long Drain waits for outstanding
// acknowledgements before failing fast with a protocol diagnostic.
const drainTimeout = 60 * time.Second

// Drain blocks until every sent frame has been acknowledged (hence
// delivered, in order, exactly once) and the inner wire's queues are empty.
// It panics when the protocol cannot converge within the default window; use
// DrainErr to bound the wait and handle the failure as a value.
func (r *Reliable) Drain() {
	if err := r.DrainErr(drainTimeout); err != nil {
		panic(err.Error())
	}
}

// DrainErr is Drain with an explicit budget and structured failure: it
// returns nil once every sent frame is acknowledged and the inner wire's
// queues are empty, or an error naming the stuck pairs when the budget runs
// out (a dead peer, or an aborted run whose receivers went away).
func (r *Reliable) DrainErr(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		r.inner.Drain()
		if r.allAcked() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: reliable drain stuck after %v:%s", timeout, r.describeUnacked())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (r *Reliable) allAcked() bool {
	for i := range r.send {
		s := &r.send[i]
		s.mu.Lock()
		n := len(s.unacked())
		s.mu.Unlock()
		if n != 0 {
			return false
		}
	}
	return true
}

func (r *Reliable) describeUnacked() string {
	out := ""
	for i := range r.send {
		s := &r.send[i]
		s.mu.Lock()
		if n := uint64(len(s.unacked())); n > 0 {
			out += fmt.Sprintf(" pair %d->%d: %d unacked (seq %d..%d);", i/r.n, i%r.n, n, s.base, s.base+n-1)
		}
		s.mu.Unlock()
	}
	if out == "" {
		out = " (no unacked frames)"
	}
	return out
}

// Close shuts the inner wire down.
func (r *Reliable) Close() error { return r.inner.Close() }

// Name identifies the stack.
func (r *Reliable) Name() string { return "reliable+" + r.inner.Name() }

// WireStats reports protocol counters plus the inner wire's traffic.
func (r *Reliable) WireStats() WireStats {
	s := WireStats{
		DataFrames:        r.dataFrames.Load(),
		Acks:              r.acks.Load(),
		Retransmits:       r.retransmits.Load(),
		DuplicatesDropped: r.dupDropped.Load(),
		OutOfOrder:        r.outOfOrder.Load(),
	}
	s.Add(innerStats(r.inner))
	return s
}

// encodeRelData wraps an inner frame with the reliable envelope: one
// allocation of the envelope's exact size, one copy of the frame.
func encodeRelData(seq uint64, inner []byte) []byte {
	b := Buffer{buf: make([]byte, 0, 1+uvarintLen(seq)+uvarintLen(uint64(len(inner)))+len(inner))}
	b.PutU8(FrameData)
	b.PutUvarint(seq)
	b.PutBlob(inner)
	return b.buf
}

// decodeRelData strips the reliable envelope.  The inner frame is a view into
// the envelope, not a copy.
func decodeRelData(frame []byte) (seq uint64, inner []byte, err error) {
	b := Buffer{buf: frame}
	if kind := b.U8(); kind != FrameData {
		return 0, nil, fmt.Errorf("expected data envelope, got kind 0x%02x", kind)
	}
	seq = b.Uvarint()
	inner = b.view()
	if err := b.Err(); err != nil {
		return 0, nil, err
	}
	if b.Remaining() != 0 {
		return 0, nil, fmt.Errorf("%d trailing bytes after data envelope", b.Remaining())
	}
	return seq, inner, nil
}
