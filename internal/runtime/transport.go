package runtime

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Transport moves RMI request batches between locations.  The runtime layers
// above it (aggregation buffers, fences, quiescence accounting) are
// transport-independent: every machine statistic is counted at logical send
// or execute time, so swapping the transport must not change a deterministic
// experiment's counters — the cross-transport equivalence suite asserts
// exactly that.
//
// Ownership: Deliver and DeliverOne must be done with the batch slice and
// the request pointers being *shared* — they either hand the requests to the
// destination mailbox synchronously or copy the pointers into their own
// storage before returning.  The caller recycles the batch slice (not the
// requests) after Deliver returns.
type Transport interface {
	// Deliver ships a batch of requests from location src to dst's mailbox,
	// preserving batch order per (src, dst) pair.
	Deliver(src, dst int, batch []*rmiRequest)
	// DeliverOne ships a single request (urgent / sync / bulk paths).
	DeliverOne(src, dst int, req *rmiRequest)
	// Drain blocks until every delivered batch has reached its destination
	// mailbox (wire transports: all frames acknowledged), or until the
	// budget runs out, in which case it returns an error naming what never
	// arrived.  An aborted run passes a short budget so a dead peer cannot
	// hold the machine hostage.
	Drain(budget time.Duration) error
	// Close releases sockets, queues and goroutines.
	Close() error
	// Name identifies the transport for stats and bench reports.
	Name() string
	// WireStats reports wire-level traffic, all-zero for in-process
	// transports.
	WireStats() transport.WireStats
	// SelfDecoding reports whether this transport executes by-value
	// operations from bytes alone (wire transports), so their completions
	// travel as tokens and KindReply frames rather than shared-memory futures
	// (see Location.OpCrossesByValue).  In-process delivery reports false.
	SelfDecoding() bool
}

// TransportFactory builds a transport for one Execute run of a machine.
// The factory is invoked at the start of Machine.Execute and the transport
// is drained and closed at the end, so wire resources (sockets, goroutines)
// only live while SPMD code runs.
type TransportFactory func(m *Machine) Transport

// InprocTransport is the default: requests go straight into the destination
// mailbox on the sender's goroutine, exactly as the runtime behaved before
// the transport seam existed.
func InprocTransport(m *Machine) Transport { return inprocTransport{m: m} }

// WireTransport runs the full wire protocol stack (batch framing plus the
// reliable FIFO exactly-once layer) over the synchronous in-process wire.
// No sockets are involved; this exercises the protocol itself.
func WireTransport(m *Machine) Transport {
	n := m.NumLocations()
	return newWireTransport(m, transport.NewReliable(transport.NewInproc(n), n))
}

// TCPLoopbackTransport runs the wire protocol stack over real kernel TCP
// sockets on 127.0.0.1: every frame — descriptors plus payload padding —
// crosses a socket.
func TCPLoopbackTransport(m *Machine) Transport {
	n := m.NumLocations()
	return newWireTransport(m, transport.NewReliable(transport.NewTCP(n), n))
}

// ChaosTransport returns a factory for the protocol stack over a
// fault-injecting wire: frames are delayed, duplicated and dropped (with
// reconnects) per cfg, and the reliable layer must restore FIFO exactly-once
// delivery.  The underlying wire is the in-process one, so the whole test
// tree can run under chaos quickly.
func ChaosTransport(cfg transport.ChaosConfig) TransportFactory {
	return func(m *Machine) Transport {
		n := m.NumLocations()
		chaos := transport.NewChaos(transport.NewInproc(n), cfg)
		return newWireTransport(m, transport.NewReliable(chaos, n))
	}
}

// ChaosTCPTransport is ChaosTransport over the TCP loopback wire.
func ChaosTCPTransport(cfg transport.ChaosConfig) TransportFactory {
	return func(m *Machine) Transport {
		n := m.NumLocations()
		chaos := transport.NewChaos(transport.NewTCP(n), cfg)
		return newWireTransport(m, transport.NewReliable(chaos, n))
	}
}

// TransportFromEnv resolves the transport selected by the PCF_TRANSPORT
// environment variable (inproc, wire, tcp, chaos, chaos-tcp; empty or unset
// means inproc), so CI can run the entire test tree over any transport
// without code changes.  PCF_CHAOS_SEED optionally reseeds the chaos
// schedule.  Unknown names panic: a typo silently falling back to inproc
// would run the wrong suite.
func TransportFromEnv() TransportFactory {
	name := os.Getenv("PCF_TRANSPORT")
	switch name {
	case "", "inproc":
		return InprocTransport
	case "wire":
		return WireTransport
	case "tcp":
		return TCPLoopbackTransport
	case "proc":
		return ProcTransport
	case "chaos", "chaos-tcp":
		cfg := transport.DefaultChaosConfig()
		if s := os.Getenv("PCF_CHAOS_SEED"); s != "" {
			seed, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				panic(fmt.Sprintf("runtime: bad PCF_CHAOS_SEED %q: %v", s, err))
			}
			cfg.Seed = seed
		}
		if name == "chaos-tcp" {
			return ChaosTCPTransport(cfg)
		}
		return ChaosTransport(cfg)
	default:
		panic(fmt.Sprintf("runtime: unknown PCF_TRANSPORT %q (want inproc, wire, tcp, proc, chaos or chaos-tcp)", name))
	}
}

// inprocTransport delivers synchronously through shared memory.
type inprocTransport struct{ m *Machine }

func (t inprocTransport) Deliver(src, dst int, batch []*rmiRequest) {
	t.m.locations[dst].inbox.pushAll(batch)
}

// DeliverOne serves a request whose issuer parks on it at once when the
// destination is idle (Location.borrow); everything else takes the mailbox.
func (t inprocTransport) DeliverOne(src, dst int, req *rmiRequest) {
	if l := t.m.locations[dst]; !req.parks || !l.borrow(req) {
		l.inbox.push(req)
	}
}

func (t inprocTransport) Drain(time.Duration) error      { return nil }
func (t inprocTransport) Close() error                   { return nil }
func (t inprocTransport) Name() string                   { return "inproc" }
func (t inprocTransport) WireStats() transport.WireStats { return transport.WireStats{} }
func (t inprocTransport) SelfDecoding() bool             { return false }

// wireTransport adapts the runtime's requests to the frame wire.  It is the
// one place that decides how a request crosses: by value or by rendezvous.
//
// A batch whose requests are all by-value registered operations (byValue) is
// self-decoding: each argument is encoded with its registry codec into the
// frame, the requests are recycled on the sender, and the receive callback
// reconstructs and executes the batch from bytes alone — the mode a
// multi-process wire requires.
//
// A batch containing a closure or a by-reference operation falls back to the
// rendezvous: descriptors (Op 0) and payload padding cross the wire while the
// requests wait in the sender-side table keyed by (src, dst, seq), and the
// receive callback matches the decoded frame back to its batch.  Fallback
// batches count each such request in WireStats.RendezvousFallbacks.
type wireTransport struct {
	m    *Machine
	wire transport.Wire

	// pairs serialises senders per (src, dst) pair: the sequence number is
	// assigned and the frame handed to the wire under the pair's lock, so
	// the adapter's batch order matches the reliable layer's frame order.
	pairs []wirePairSend

	// recvs asserts in-order arrival per pair (the reliable layer's
	// guarantee) and serialises mailbox pushes for a pair.
	recvs []wirePairRecv

	// pending is the rendezvous table of in-flight closure batches.
	pendMu  sync.Mutex
	pending map[wireKey]*wireScratch

	// fallbacks counts requests that crossed as bare descriptors because
	// they were closures or by-reference operations.
	fallbacks atomic.Int64

	// arrived, when non-nil, observes every received batch just before it is
	// pushed to the destination mailbox (src is the sending location, n the
	// request count).  The multi-process transport uses it to re-establish
	// the pending accounting the sending process gave up at send time.
	arrived func(src, n int)
}

type wirePairSend struct {
	mu   sync.Mutex
	next uint64
}

type wirePairRecv struct {
	mu       sync.Mutex
	expected uint64
}

type wireKey struct {
	src, dst int
	seq      uint64
}

func newWireTransport(m *Machine, wire transport.Wire) *wireTransport {
	n := m.NumLocations()
	t := &wireTransport{
		m:       m,
		wire:    wire,
		pairs:   make([]wirePairSend, n*n),
		recvs:   make([]wirePairRecv, n*n),
		pending: make(map[wireKey]*wireScratch),
	}
	// Asynchronous wire failures (dial exhaustion, peer resets) become
	// machine-level transport faults instead of panics on wire goroutines.
	if es, ok := wire.(transport.ErrorSink); ok {
		es.OnWireError(func(err error) {
			m.recordFault(&LocationFault{Location: -1, Kind: FaultTransport, Err: err})
		})
	}
	if err := wire.Start(t.onFrame); err != nil {
		panic(fmt.Sprintf("runtime: starting %s wire: %v", wire.Name(), err))
	}
	return t
}

func (t *wireTransport) pair(src, dst int) int { return src*t.m.NumLocations() + dst }

// byValue reports whether the request can be rebuilt from bytes at the
// receiver: its operation has a codec for the argument (or, for a reply, for
// the result).  Closures and by-reference operations have none.
func (r *rmiRequest) byValue() bool {
	if r.kind == transport.KindReply {
		return r.op.encodeRet != nil
	}
	return r.op.encode != nil
}

// describe names the request for a fault message.
func (r *rmiRequest) describe() string {
	if r.op.id == 0 {
		return fmt.Sprintf("unregistered closure request (handle %d, kind 0x%02x)", r.handle, r.kind)
	}
	return fmt.Sprintf("by-reference operation %q (handle %d, kind 0x%02x)", r.op.name, r.handle, r.kind)
}

// wireScratch is the adapter's working memory for one message.  A sender
// encodes the batch's arguments into enc back to back and slices descs out of
// it; a receiver decodes the arguments through dec and collects the rebuilt
// requests in reqs on their way to the mailbox.  None of it outlives the
// message — EncodeBatch copies the arguments into the frame it allocates,
// decoded values never alias what they were read from, the mailbox copies the
// request pointers — which is what makes it poolable where a frame is not (see
// transport.Wire).  A rendezvous batch parks its requests in reqs and its
// scratch in the pending table; the receive callback that claims it gives it
// back.
type wireScratch struct {
	enc   transport.Buffer
	descs []transport.RequestDescriptor
	dec   transport.Buffer
	reqs  []*rmiRequest
}

var wireScratchPool = sync.Pool{New: func() any { return new(wireScratch) }}

// putWireScratch empties ws — keeping its storage, dropping every reference
// into frames, arguments and requests — and pools it.
func putWireScratch(ws *wireScratch) {
	ws.enc.Reset(ws.enc.Bytes()[:0])
	ws.dec.Reset(nil)
	clear(ws.descs)
	clear(ws.reqs)
	ws.descs, ws.reqs = ws.descs[:0], ws.reqs[:0]
	wireScratchPool.Put(ws)
}

func (t *wireTransport) Deliver(src, dst int, batch []*rmiRequest) {
	selfDecoding := true
	for _, req := range batch {
		if !req.byValue() {
			selfDecoding = false
			t.fallbacks.Add(1)
		}
	}

	ws := wireScratchPool.Get().(*wireScratch)
	enc := &ws.enc
	ws.descs = slices.Grow(ws.descs, len(batch))[:len(batch)]
	descs := ws.descs
	payload := 0
	for i, req := range batch {
		descs[i] = transport.RequestDescriptor{
			Handle: int32(req.handle),
			Kind:   req.kind,
			Bytes:  uint32(req.bytes),
		}
		payload += req.bytes
		if !selfDecoding {
			continue
		}
		e := req.op
		descs[i].Op = uint64(e.id)
		start := enc.Len()
		if req.kind == transport.KindReply {
			descs[i].Token = req.token
			e.encodeRet(enc, req.arg)
		} else {
			e.encode(enc, req.arg)
		}
		// Sliced at once: a later argument may grow the buffer into a new
		// array, but growing copies and never writes the old one, so the bytes
		// this argument was written to stay what they are.
		descs[i].Arg = enc.Bytes()[start:]
	}

	p := &t.pairs[t.pair(src, dst)]
	p.mu.Lock()
	seq := p.next
	p.next++
	if !selfDecoding {
		// Copy the requests out: the caller recycles the batch slice, and
		// the closures must survive until the frame arrives.
		ws.reqs = append(ws.reqs, batch...)
		t.pendMu.Lock()
		t.pending[wireKey{src, dst, seq}] = ws
		t.pendMu.Unlock()
	}
	frame := transport.EncodeBatch(transport.BatchHeader{
		Src: src, Dst: dst, Seq: seq, PayloadBytes: payload,
	}, descs)
	// The frame is handed to the wire while the pair lock is held so that
	// concurrent senders from the same location cannot invert the sequence
	// order the reliable layer sees.
	t.wire.Send(src, dst, frame)
	p.mu.Unlock()

	if selfDecoding {
		// The frame carries everything; recycle the scratch, and the requests
		// (and their pooled arguments) on the sender.  A rendezvous batch's
		// scratch is the receive callback's to recycle, possibly already.
		putWireScratch(ws)
		for _, req := range batch {
			release := req.op.release
			if req.kind == transport.KindReply {
				release = req.op.releaseRet
			}
			if release != nil {
				release(req.arg)
			}
			putRequest(req)
		}
	}
}

func (t *wireTransport) DeliverOne(src, dst int, req *rmiRequest) {
	t.Deliver(src, dst, []*rmiRequest{req})
}

// onFrame is the wire's deliver callback: it matches the decoded header back
// to the closure batch and hands the requests to the destination mailbox.
// The reliable layer guarantees per-pair FIFO exactly-once delivery; the
// expected-sequence check turns a violation into a transport fault instead
// of a reordered execution.  The callback runs on wire goroutines, so any
// panic here is contained into a machine abort rather than killing the
// process.
func (t *wireTransport) onFrame(src, dst int, frame []byte) {
	defer func() {
		if r := recover(); r != nil {
			t.m.recordFault(&LocationFault{
				Location: -1, Kind: FaultTransport, Err: r, Stack: captureStack(),
			})
		}
	}()
	hdr, descs, err := transport.DecodeBatch(frame)
	if err != nil {
		panic(fmt.Sprintf("runtime: wire delivered corrupt batch %d->%d: %v", src, dst, err))
	}
	if hdr.Src != src || hdr.Dst != dst {
		panic(fmt.Sprintf("runtime: wire frame header names pair %d->%d but travelled %d->%d", hdr.Src, hdr.Dst, src, dst))
	}

	selfDecoding := true
	for _, d := range descs {
		if d.Op == 0 {
			selfDecoding = false
			break
		}
	}
	var ws *wireScratch
	if selfDecoding {
		ws = t.decodeBatch(hdr, descs)
	} else {
		ws = t.claimBatch(hdr, descs)
	}

	r := &t.recvs[t.pair(src, dst)]
	r.mu.Lock()
	if hdr.Seq != r.expected {
		r.mu.Unlock()
		panic(fmt.Sprintf("runtime: wire delivered frame %d->%d seq %d, expected %d (FIFO violated below the reliable layer?)", src, dst, hdr.Seq, r.expected))
	}
	r.expected++
	if t.arrived != nil {
		t.arrived(src, len(ws.reqs))
	}
	// Push while holding the pair's receive lock: delivery callbacks for a
	// pair are already serialised by the reliable layer, and the lock keeps
	// that true even if a future wire grows concurrent delivery.
	t.m.locations[dst].inbox.pushAll(ws.reqs)
	r.mu.Unlock()
	putWireScratch(ws)
}

// decodeBatch reconstructs a self-decoding batch from bytes alone: look up
// each operation, decode its argument where it lies in the frame and rebuild
// the request — no sender state, no copy of the argument bytes.
func (t *wireTransport) decodeBatch(hdr transport.BatchHeader, descs []transport.RequestDescriptor) *wireScratch {
	ws := wireScratchPool.Get().(*wireScratch)
	b := &ws.dec
	for _, d := range descs {
		e := opByID(OpID(d.Op))
		b.Reset(d.Arg)
		req := getRequest()
		*req = rmiRequest{
			src:    hdr.Src,
			handle: Handle(d.Handle),
			kind:   d.Kind,
			op:     e,
			bytes:  int(d.Bytes),
		}
		if !req.byValue() {
			panic(fmt.Sprintf("runtime: frame %d->%d seq %d names op %q, which has no codec for kind 0x%02x", hdr.Src, hdr.Dst, hdr.Seq, e.name, d.Kind))
		}
		if d.Kind == transport.KindReply {
			req.token = d.Token
			req.arg = e.decodeRet(b)
		} else {
			req.arg = e.decode(b)
		}
		if err := b.Err(); err != nil {
			panic(fmt.Sprintf("runtime: frame %d->%d seq %d: decoding argument of op %q: %v", hdr.Src, hdr.Dst, hdr.Seq, e.name, err))
		}
		// The artificial latency is a deterministic function of the pair,
		// so the receiver recomputes exactly what the sender would have
		// stamped.
		if t.m.cfg.RemoteDelay != nil {
			req.delay = t.m.cfg.RemoteDelay(hdr.Src, hdr.Dst)
		}
		ws.reqs = append(ws.reqs, req)
	}
	return ws
}

// claimBatch matches a rendezvous frame back to the batch waiting in the
// sender-side table and checks the descriptors against it.
func (t *wireTransport) claimBatch(hdr transport.BatchHeader, descs []transport.RequestDescriptor) *wireScratch {
	key := wireKey{hdr.Src, hdr.Dst, hdr.Seq}
	t.pendMu.Lock()
	ws, ok := t.pending[key]
	delete(t.pending, key)
	t.pendMu.Unlock()
	if !ok {
		panic(fmt.Sprintf("runtime: no rendezvous batch for frame %d->%d seq %d (duplicate delivery?)", hdr.Src, hdr.Dst, hdr.Seq))
	}
	held := ws.reqs
	if len(descs) != len(held) {
		panic(fmt.Sprintf("runtime: frame %d->%d seq %d carries %d descriptors for a batch of %d requests", hdr.Src, hdr.Dst, hdr.Seq, len(descs), len(held)))
	}
	for i, d := range descs {
		if Handle(d.Handle) != held[i].handle || d.Kind != held[i].kind {
			panic(fmt.Sprintf("runtime: frame %d->%d seq %d descriptor %d does not match its request", hdr.Src, hdr.Dst, hdr.Seq, i))
		}
	}
	return ws
}

func (t *wireTransport) Drain(budget time.Duration) error {
	if td, ok := t.wire.(transport.TimedDrainer); ok {
		if err := td.DrainErr(budget); err != nil {
			return err
		}
	} else {
		t.wire.Drain()
	}
	t.pendMu.Lock()
	keys := make([]wireKey, 0, len(t.pending))
	for k := range t.pending {
		keys = append(keys, k)
	}
	t.pendMu.Unlock()
	if len(keys) == 0 {
		return nil
	}
	// Name every missing rendezvous pair so a chaos-run failure is
	// diagnosable from the message alone.
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		if keys[i].dst != keys[j].dst {
			return keys[i].dst < keys[j].dst
		}
		return keys[i].seq < keys[j].seq
	})
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d->%d seq %d", k.src, k.dst, k.seq)
	}
	return fmt.Errorf("runtime: wire drained but %d rendezvous batches never arrived: %s", len(keys), b.String())
}

func (t *wireTransport) Close() error {
	if err := t.wire.Close(); err != nil {
		return fmt.Errorf("runtime: closing %s wire: %w", t.wire.Name(), err)
	}
	return nil
}

func (t *wireTransport) Name() string { return t.wire.Name() }

func (t *wireTransport) SelfDecoding() bool { return true }

func (t *wireTransport) WireStats() transport.WireStats {
	var s transport.WireStats
	if ss, ok := t.wire.(transport.StatsSource); ok {
		s = ss.WireStats()
	}
	s.RendezvousFallbacks += t.fallbacks.Load()
	return s
}
