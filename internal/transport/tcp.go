package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPWire moves frames over real kernel TCP sockets on the loopback
// interface: every endpoint owns a listener, and each (source, destination)
// pair that exchanges traffic gets its own connection with an unbounded
// outgoing queue and a dedicated writer goroutine, which dials the connection
// and then writes in batches through a buffered writer, flushed whenever the
// queue runs dry.  Frames are length-prefixed; a connection opens with an
// 8-byte (src, dst) handshake so the acceptor can attribute everything it
// reads.
//
// In-process the sockets never fail outside Close, so a bare TCPWire is
// ordered and lossless per pair; the runtime still layers Reliable on top so
// the exact same protocol stack runs with and without chaos.
type TCPWire struct {
	n       int
	deliver DeliverFunc

	// self, when >= 0, puts the wire in MESH mode for multi-process runs:
	// only endpoint self is local, so Start opens one listener (for self),
	// Send accepts only src == self, and inbound handshakes must name self as
	// their destination.  Peer listener addresses are learned through
	// SetPeerAddrs after every process has bound and published its own.
	// self < 0 is the all-local mode, where every endpoint lives here.
	self int

	mu        sync.Mutex
	listeners []net.Listener
	addrs     []string
	closed    bool
	// out holds the sending half of every pair that has sent, at src*n+dst.  A
	// slot is filled once, under mu, and read without it.
	out []atomic.Pointer[outConn]

	accepting sync.WaitGroup
	reading   sync.WaitGroup
	writing   sync.WaitGroup

	framesSent    atomic.Int64
	framesRecv    atomic.Int64
	bytesSent     atomic.Int64
	bytesRecv     atomic.Int64
	connsAccepted atomic.Int64
	dialRetries   atomic.Int64

	// errSink, when installed, receives asynchronous wire failures (dial
	// exhaustion, a peer resetting a connection mid-write) instead of the
	// failure panicking or being dropped silently.
	errSink atomic.Pointer[func(err error)]
}

// outConn is the sending half of one (src, dst) pair: the outgoing queue of a
// connection its writer goroutine owns.
type outConn struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   [][]byte
	writing bool // writer holds frames it has not flushed yet
	closed  bool
}

// NewTCP builds a TCP loopback wire between n endpoints, all local to this
// process.  Listeners are opened by Start; connections are dialled lazily on
// first send.
func NewTCP(n int) *TCPWire {
	return &TCPWire{n: n, self: -1, out: make([]atomic.Pointer[outConn], n*n)}
}

// NewTCPMesh builds the multi-process variant: a wire for n endpoints of
// which only self lives in this process.  Start binds self's listener; the
// caller then publishes Addr() to the other processes and installs the full
// table with SetPeerAddrs before the first Send.
func NewTCPMesh(n, self int) *TCPWire {
	if self < 0 || self >= n {
		panic(fmt.Sprintf("transport: tcp mesh endpoint %d outside [0,%d)", self, n))
	}
	w := NewTCP(n)
	w.self = self
	return w
}

// Start opens the loopback listeners (one per endpoint, or only self's in
// mesh mode) and begins accepting.
func (w *TCPWire) Start(deliver DeliverFunc) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.deliver != nil {
		return errors.New("transport: tcp wire started twice")
	}
	w.deliver = deliver
	w.listeners = make([]net.Listener, w.n)
	w.addrs = make([]string, w.n)
	for i := 0; i < w.n; i++ {
		if w.self >= 0 && i != w.self {
			continue // a peer process owns this endpoint
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				if w.listeners[j] != nil {
					w.listeners[j].Close()
				}
			}
			w.deliver = nil
			return fmt.Errorf("transport: tcp listen for location %d: %w", i, err)
		}
		w.listeners[i] = ln
		w.addrs[i] = ln.Addr().String()
		w.accepting.Add(1)
		go w.acceptLoop(ln)
	}
	return nil
}

// Addr returns the listen address of this process's endpoint (mesh mode) so
// the launcher's control plane can distribute the address table.  Must be
// called after Start.
func (w *TCPWire) Addr() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.self < 0 {
		panic("transport: Addr is only meaningful for a mesh wire")
	}
	return w.addrs[w.self]
}

// SetPeerAddrs installs the full endpoint address table (mesh mode).  It
// must be called before the first Send; self's own entry is kept as bound.
func (w *TCPWire) SetPeerAddrs(addrs []string) {
	if len(addrs) != w.n {
		panic(fmt.Sprintf("transport: peer table has %d addresses for %d endpoints", len(addrs), w.n))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, a := range addrs {
		if i == w.self {
			continue
		}
		w.addrs[i] = a
	}
}

// acceptLoop accepts inbound connections for one endpoint and spawns a
// reader per connection.
func (w *TCPWire) acceptLoop(ln net.Listener) {
	defer w.accepting.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		w.connsAccepted.Add(1)
		w.reading.Add(1)
		go w.readLoop(conn)
	}
}

// readLoop reads the handshake and then delivers length-prefixed frames
// until the connection closes.
func (w *TCPWire) readLoop(conn net.Conn) {
	defer w.reading.Done()
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)
	var hs [8]byte
	if _, err := io.ReadFull(br, hs[:]); err != nil {
		return
	}
	src := int(binary.BigEndian.Uint32(hs[0:4]))
	dst := int(binary.BigEndian.Uint32(hs[4:8]))
	if src < 0 || src >= w.n || dst < 0 || dst >= w.n {
		panic(fmt.Sprintf("transport: tcp handshake names pair %d->%d outside [0,%d)", src, dst, w.n))
	}
	if w.self >= 0 && dst != w.self {
		panic(fmt.Sprintf("transport: tcp mesh endpoint %d accepted a connection destined for %d", w.self, dst))
	}
	var lenb [4]byte
	for {
		if _, err := io.ReadFull(br, lenb[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(lenb[:])
		frame := make([]byte, size)
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		w.framesRecv.Add(1)
		w.bytesRecv.Add(int64(size) + 4)
		w.deliver(src, dst, frame)
	}
}

// Send queues the frame on the pair's connection; the first frame of a pair
// starts its writer, which dials.  Send never waits for a dial.
func (w *TCPWire) Send(src, dst int, frame []byte) {
	if src == dst {
		panic("transport: tcp wire asked to send to self (the runtime shortcuts local requests)")
	}
	if w.self >= 0 && src != w.self {
		panic(fmt.Sprintf("transport: tcp mesh endpoint %d asked to send as %d", w.self, src))
	}
	oc := w.conn(src, dst)
	if oc == nil {
		return // wire closed
	}
	oc.mu.Lock()
	if oc.closed {
		oc.mu.Unlock()
		return
	}
	oc.queue = append(oc.queue, frame)
	oc.cond.Signal()
	oc.mu.Unlock()
}

// Dial-retry schedule: a peer's listener may come up after our first Send
// (the multi-process launcher starts processes independently), so failed
// dials back off exponentially with full jitter before the wire gives up.
const (
	dialAttempts    = 8
	dialBackoffBase = 1 * time.Millisecond
	dialBackoffCap  = 250 * time.Millisecond
)

// OnWireError installs the asynchronous-failure callback (ErrorSink).
func (w *TCPWire) OnWireError(fn func(err error)) { w.errSink.Store(&fn) }

// reportError hands an asynchronous failure to the installed sink; with no
// sink it panics — the pre-containment behaviour.
func (w *TCPWire) reportError(err error) {
	if fn := w.errSink.Load(); fn != nil {
		(*fn)(err)
		return
	}
	panic(err.Error())
}

// dial connects to dst's listener at addr with jittered exponential backoff,
// retrying transient refusals while the peer's listener comes up.
func (w *TCPWire) dial(src, dst int, addr string) (net.Conn, error) {
	var lastErr error
	if addr == "" {
		return nil, fmt.Errorf("transport: tcp mesh endpoint %d has no address for %d (SetPeerAddrs not called?)", w.self, dst)
	}
	backoff := dialBackoffBase
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			w.dialRetries.Add(1)
			// Full jitter: sleep a uniform fraction of the current backoff so
			// simultaneous redials from many pairs spread out.
			time.Sleep(time.Duration(rand.Int63n(int64(backoff)) + 1))
			backoff *= 2
			if backoff > dialBackoffCap {
				backoff = dialBackoffCap
			}
		}
		c, err := net.Dial("tcp", addr)
		if err != nil {
			lastErr = err
			continue
		}
		var hs [8]byte
		binary.BigEndian.PutUint32(hs[0:4], uint32(src))
		binary.BigEndian.PutUint32(hs[4:8], uint32(dst))
		if _, err := c.Write(hs[:]); err != nil {
			c.Close()
			lastErr = err
			continue
		}
		return c, nil
	}
	return nil, fmt.Errorf("transport: tcp dial %d->%d (%s) failed after %d attempts: %w", src, dst, addr, dialAttempts, lastErr)
}

// conn returns the pair's sending half: a table read once the pair has sent.
// The pair's first call files the queue and starts its writer under the
// wire's lock; the dial is the writer's, so a peer whose listener is late holds
// up its own pair and nobody else's.  Returns nil when the wire is closed.
func (w *TCPWire) conn(src, dst int) *outConn {
	slot := &w.out[src*w.n+dst]
	if oc := slot.Load(); oc != nil {
		return oc
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	if oc := slot.Load(); oc != nil {
		return oc
	}
	if w.deliver == nil {
		panic("transport: tcp wire used before Start")
	}
	oc := &outConn{}
	oc.cond = sync.NewCond(&oc.mu)
	slot.Store(oc)
	w.writing.Add(1)
	go w.writeLoop(oc, src, dst, w.addrs[dst])
	return oc
}

// conns lists the sending halves filed so far.
func (w *TCPWire) conns() []*outConn {
	var out []*outConn
	for i := range w.out {
		if oc := w.out[i].Load(); oc != nil {
			out = append(out, oc)
		}
	}
	return out
}

// writeLoop dials the pair's connection, then drains the pair's queue into
// the socket, flushing whenever the queue runs dry (the per-connection
// batching that keeps frame writes off the senders' critical path).  Frames
// sent while the dial was retrying wait in the queue; when the retries are
// exhausted the failure goes to the error sink and the pair drops what it
// holds and whatever is sent to it later.
func (w *TCPWire) writeLoop(oc *outConn, src, dst int, addr string) {
	defer w.writing.Done()
	c, err := w.dial(src, dst, addr)
	if err != nil {
		w.dropRest(oc)
		w.reportError(err)
		return
	}
	defer c.Close()
	bw := bufio.NewWriterSize(c, 1<<16)
	var lenb [4]byte
	// Two slices change hands: while the writer works through one batch the
	// senders fill the other, so neither side allocates in the steady state.
	var batch [][]byte
	for {
		oc.mu.Lock()
		for len(oc.queue) == 0 && !oc.closed {
			oc.cond.Wait()
		}
		if len(oc.queue) == 0 && oc.closed {
			oc.mu.Unlock()
			return
		}
		batch, oc.queue = oc.queue, batch[:0]
		oc.writing = true
		oc.mu.Unlock()
		for _, frame := range batch {
			binary.BigEndian.PutUint32(lenb[:], uint32(len(frame)))
			if _, err := bw.Write(lenb[:]); err != nil {
				w.writeFailed(oc, err)
				return
			}
			if _, err := bw.Write(frame); err != nil {
				w.writeFailed(oc, err)
				return
			}
			w.framesSent.Add(1)
			w.bytesSent.Add(int64(len(frame)) + 4)
		}
		if err := bw.Flush(); err != nil {
			w.writeFailed(oc, err)
			return
		}
		clear(batch) // written frames are not the queue's to keep alive
		oc.mu.Lock()
		oc.writing = false
		oc.cond.Broadcast()
		oc.mu.Unlock()
	}
}

// writeFailed marks a connection dead after a write error.  During Close
// that is the expected teardown; any other time the peer reset the
// connection mid-stream, which is reported through the error sink (when one
// is installed) so the run surfaces a transport fault instead of silently
// losing the queued frames.
func (w *TCPWire) writeFailed(oc *outConn, err error) {
	w.mu.Lock()
	closing := w.closed
	w.mu.Unlock()
	if !closing {
		if fn := w.errSink.Load(); fn != nil {
			(*fn)(fmt.Errorf("transport: tcp write failed (peer reset during drain?): %w", err))
		}
	}
	w.dropRest(oc)
}

// dropRest marks a pair dead — after a write error (which in-process only
// happens once Close tore the peer down) or a dial that gave up; queued
// frames are dropped, and so is whatever is sent to the pair afterwards.
func (w *TCPWire) dropRest(oc *outConn) {
	oc.mu.Lock()
	oc.closed = true
	oc.queue = nil
	oc.writing = false
	oc.cond.Broadcast()
	oc.mu.Unlock()
}

// Drain blocks until every queued frame has been written and flushed to its
// socket.  End-to-end delivery is the Reliable layer's job; Drain only
// guarantees the sending side is empty.
func (w *TCPWire) Drain() {
	for _, oc := range w.conns() {
		oc.mu.Lock()
		for (len(oc.queue) > 0 || oc.writing) && !oc.closed {
			oc.cond.Wait()
		}
		oc.mu.Unlock()
	}
}

// Close tears down queues, connections and listeners and waits for every
// goroutine to exit.
func (w *TCPWire) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	listeners := w.listeners
	conns := w.conns() // complete: a slot is filled under mu, and closed is set
	w.mu.Unlock()

	// Let writers drain what is already queued, then stop them.
	for _, oc := range conns {
		oc.mu.Lock()
		for (len(oc.queue) > 0 || oc.writing) && !oc.closed {
			oc.cond.Wait()
		}
		oc.closed = true
		oc.cond.Broadcast()
		oc.mu.Unlock()
	}
	w.writing.Wait() // each writer closes its connection on the way out
	for _, ln := range listeners {
		if ln != nil {
			ln.Close()
		}
	}
	w.accepting.Wait()
	w.reading.Wait()
	return nil
}

// Name identifies the wire.
func (w *TCPWire) Name() string { return "tcp" }

// WireStats reports socket-level traffic.
func (w *TCPWire) WireStats() WireStats {
	return WireStats{
		FramesSent:     w.framesSent.Load(),
		FramesReceived: w.framesRecv.Load(),
		BytesSent:      w.bytesSent.Load(),
		BytesReceived:  w.bytesRecv.Load(),
		Connections:    w.connsAccepted.Load(),
		DialRetries:    w.dialRetries.Load(),
	}
}
