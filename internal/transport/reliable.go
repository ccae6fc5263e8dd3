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
// connection drop) lose frames (docs/PROTOCOL.md §5):
//
//   - every data frame carries a per-pair sequence number and is kept by
//     the sender until acknowledged;
//   - the receiver delivers strictly in sequence order, buffering frames
//     that arrive early and discarding duplicates;
//   - acknowledgements are cumulative and ride on the data frames of the
//     reverse pair: every envelope carries how far the pair running the other
//     way has been delivered, so a reply acknowledges its request and the next
//     request acknowledges the reply;
//   - a stand-alone FrameAck is sent in three cases only: at once for a
//     duplicate arrival, when ackEvery arrivals or ackBytes bytes of a pair
//     have gone unacknowledged because nothing travelled the other way, and
//     from Drain;
//   - when the wire signals a reconnect for a pair, every unacknowledged
//     frame of the pair is retransmitted in order, byte for byte — with the
//     acknowledgement it was first encoded with, which by then is stale and,
//     being cumulative, releases nothing.
//
// Stand-alone acknowledgements are control traffic; the chaos wrapper injects
// faults into data frames only, which is what makes the protocol's drain
// terminate.
type Reliable struct {
	inner   Wire
	n       int
	deliver DeliverFunc

	send []relSend
	recv []relRecv

	// draining is set while a DrainErr runs: every arrival is acknowledged at
	// once and an acknowledgement that empties a window posts to emptied.
	drainMu  sync.Mutex // one drain at a time: emptied has one reader
	draining atomic.Bool
	emptied  chan struct{}

	dataFrames  atomic.Int64
	acks        atomic.Int64
	retransmits atomic.Int64
	dupDropped  atomic.Int64
	outOfOrder  atomic.Int64
}

// A pair's receiver sends a stand-alone acknowledgement once this many
// arrivals, or this many bytes of inner frames, have been delivered without
// an acknowledgement leaving on a reverse data frame.  They bound what a
// sender must keep for a stream nothing answers (PROTOCOL.md §5).
const (
	ackEvery = 32
	ackBytes = 1 << 20
)

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
	mu    sync.Mutex        // serialises delivery; held across the deliver callback
	early map[uint64][]byte // inner frames that arrived ahead of their turn, by sequence number

	// What the pair owes its sender.  These are atomics because Send
	// piggy-backs from the reverse pair while onData may be holding mu across
	// a callback that is itself sending: delivered and bytes are written under
	// mu, the two marks by whoever lets an acknowledgement leave.
	delivered  atomic.Uint64 // envelopes 0..delivered-1 were delivered: the next sequence expected
	bytes      atomic.Uint64 // their inner frames' total size
	ackedTo    atomic.Uint64 // delivered, as the last acknowledgement to leave carried it
	ackedBytes atomic.Uint64 // bytes, at that moment
}

// ack returns the pair's acknowledgement field — 0 for nothing delivered,
// otherwise the cumulative sequence plus one — and notes that it is leaving.
// Two acknowledgements leaving at once may note the older value last; the
// pair then owes one it has sent, and sends it again.
func (rv *relRecv) ack() uint64 {
	d := rv.delivered.Load()
	rv.ackedTo.Store(d)
	rv.ackedBytes.Store(rv.bytes.Load())
	return d
}

// NewReliable wraps inner with the ordered exactly-once protocol for n
// endpoints.
func NewReliable(inner Wire, n int) *Reliable {
	return &Reliable{
		inner: inner,
		n:     n,
		send:  make([]relSend, n*n),
		recv:  make([]relRecv, n*n),
		// Capacity one: a wake-up posted between two waits is kept, later ones merge with it.
		emptied: make(chan struct{}, 1),
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

// Send assigns the frame its sequence number, stamps it with the reverse
// pair's acknowledgement, files it for retransmission and ships it.
func (r *Reliable) Send(src, dst int, frame []byte) {
	s := &r.send[r.pair(src, dst)]
	s.mu.Lock()
	seq := s.next
	s.next++
	outer := encodeRelData(seq, r.recv[r.pair(dst, src)].ack(), frame)
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
		asrc, adst, cum, err := DecodeAck(frame)
		if err != nil {
			panic(fmt.Sprintf("transport: corrupt ack frame: %v", err))
		}
		r.release(asrc, adst, cum)
	default:
		panic(fmt.Sprintf("transport: reliable received unknown frame kind 0x%02x", frame[0]))
	}
}

func (r *Reliable) onData(src, dst int, frame []byte) {
	seq, ack, inner, err := decodeRelData(frame)
	if err != nil {
		panic(fmt.Sprintf("transport: corrupt data frame from %d to %d: %v", src, dst, err))
	}
	if ack > 0 {
		// Before the delivery, so a reply sent from the callback finds the
		// window its request left.
		r.release(dst, src, ack-1)
	}
	rv := &r.recv[r.pair(src, dst)]
	rv.mu.Lock()
	// Holding the pair's receive lock across the callbacks serialises
	// delivery, so two wire goroutines cannot reorder consecutive frames.
	expected := rv.delivered.Load()
	_, buffered := rv.early[seq]
	dup := seq < expected || buffered
	switch {
	case dup:
		r.dupDropped.Add(1)
	case seq > expected:
		r.outOfOrder.Add(1)
		if rv.early == nil {
			rv.early = make(map[uint64][]byte)
		}
		rv.early[seq] = inner
	default:
		// In turn: straight to the callback, then the run of early frames it
		// unblocked, if any wait.
		r.deliverNext(rv, src, dst, inner)
		for len(rv.early) > 0 {
			next, ok := rv.early[rv.delivered.Load()]
			if !ok {
				break
			}
			delete(rv.early, rv.delivered.Load())
			r.deliverNext(rv, src, dst, next)
		}
	}
	// A duplicate usually means an acknowledgement was lost, or raced a
	// retransmission: answer it at once.  Otherwise the acknowledgement waits
	// for a reverse data frame until the pair owes too much, or a drain wants
	// every window empty.
	delivered := rv.delivered.Load()
	owed := delivered - rv.ackedTo.Load()
	standAlone := dup && delivered > 0 || owed >= ackEvery ||
		rv.bytes.Load()-rv.ackedBytes.Load() >= ackBytes || owed > 0 && r.draining.Load()
	var cum uint64
	if standAlone {
		cum = rv.ack() - 1
	}
	rv.mu.Unlock()
	if standAlone {
		r.sendAck(src, dst, cum)
	}
}

// deliverNext hands the pair's next frame in sequence to the callback.  The
// counts move first: a reply sent from the callback acknowledges the frame it
// answers.  The caller holds rv.mu.
func (r *Reliable) deliverNext(rv *relRecv, src, dst int, inner []byte) {
	rv.bytes.Add(uint64(len(inner)))
	rv.delivered.Add(1)
	r.deliver(src, dst, inner)
}

// sendAck sends a stand-alone acknowledgement for the data pair src -> dst.
func (r *Reliable) sendAck(src, dst int, cum uint64) {
	r.acks.Add(1)
	r.inner.Send(dst, src, EncodeAck(src, dst, cum))
}

// release applies a cumulative acknowledgement, stand-alone or piggy-backed,
// to the window of the data pair src -> dst, and wakes a waiting drain when it
// was the one that emptied the window.
func (r *Reliable) release(src, dst int, cum uint64) {
	s := &r.send[r.pair(src, dst)]
	s.mu.Lock()
	had := len(s.unacked())
	s.release(cum)
	emptied := had > 0 && len(s.unacked()) == 0
	s.mu.Unlock()
	if emptied && r.draining.Load() {
		select {
		case r.emptied <- struct{}{}:
		default:
		}
	}
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

// Drain sends every acknowledgement this side owes, then blocks until every
// frame it sent has been acknowledged (hence delivered, in order, exactly
// once) and the inner wire's queues are empty.  It panics when the protocol
// cannot converge within the default window; use DrainErr to bound the wait and
// handle the failure as a value.
func (r *Reliable) Drain() {
	if err := r.DrainErr(drainTimeout); err != nil {
		panic(err.Error())
	}
}

// DrainErr is Drain with an explicit budget and structured failure: it
// returns nil once every sent frame is acknowledged and the inner wire's
// queues are empty, or an error naming the stuck pairs when the budget runs
// out (a dead peer, or an aborted run whose receivers went away).  It sleeps
// on the acknowledgement that empties a window, not on a timer.
func (r *Reliable) DrainErr(timeout time.Duration) error {
	r.drainMu.Lock()
	defer r.drainMu.Unlock()
	// From here on arrivals are acknowledged as they come; what arrived before
	// is acknowledged now.
	r.draining.Store(true)
	defer r.draining.Store(false)
	for i := range r.recv {
		if rv := &r.recv[i]; rv.delivered.Load() != rv.ackedTo.Load() {
			r.sendAck(i/r.n, i%r.n, rv.ack()-1)
		}
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		r.inner.Drain()
		if r.allAcked() {
			return nil
		}
		select {
		case <-r.emptied:
		case <-deadline.C:
			return fmt.Errorf("transport: reliable drain stuck after %v:%s", timeout, r.describeUnacked())
		}
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
// allocation of the envelope's exact size, one copy of the frame.  ack is the
// reverse pair's acknowledgement field (relRecv.ack), written here and never
// again: a stored envelope is retransmitted as it is.
func encodeRelData(seq, ack uint64, inner []byte) []byte {
	b := Buffer{buf: make([]byte, 0, 1+uvarintLen(seq)+uvarintLen(ack)+uvarintLen(uint64(len(inner)))+len(inner))}
	b.PutU8(FrameData)
	b.PutUvarint(seq)
	b.PutUvarint(ack)
	b.PutBlob(inner)
	return b.buf
}

// decodeRelData strips the reliable envelope.  The inner frame is a view into
// the envelope, not a copy.
func decodeRelData(frame []byte) (seq, ack uint64, inner []byte, err error) {
	b := Buffer{buf: frame}
	if kind := b.U8(); kind != FrameData {
		return 0, 0, nil, fmt.Errorf("expected data envelope, got kind 0x%02x", kind)
	}
	seq = b.Uvarint()
	ack = b.Uvarint()
	inner = b.view()
	if err := b.Err(); err != nil {
		return 0, 0, nil, err
	}
	if b.Remaining() != 0 {
		return 0, 0, nil, fmt.Errorf("%d trailing bytes after data envelope", b.Remaining())
	}
	return seq, ack, inner, nil
}
