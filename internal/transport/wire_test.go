package transport

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collector records delivered frames per (src, dst) pair.
type collector struct {
	mu     sync.Mutex
	frames map[[2]int][][]byte
}

func newCollector() *collector { return &collector{frames: map[[2]int][][]byte{}} }

func (c *collector) deliver(src, dst int, frame []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames[[2]int{src, dst}] = append(c.frames[[2]int{src, dst}], append([]byte(nil), frame...))
}

func (c *collector) pair(src, dst int) [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames[[2]int{src, dst}]
}

// testFrame builds a distinguishable data frame: the reliable layers under
// test wrap it in their own envelope, so the payload only needs identity.
func testFrame(seq int) []byte {
	b := NewBuffer()
	b.PutU8(FrameData)
	b.PutUvarint(uint64(seq))
	return b.Bytes()
}

func frameSeq(t *testing.T, frame []byte) int {
	t.Helper()
	b := NewReader(frame)
	if b.U8() != FrameData {
		t.Fatal("not a data frame")
	}
	return int(b.Uvarint())
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestInprocWireDeliversSynchronously(t *testing.T) {
	w := NewInproc(2)
	c := newCollector()
	if err := w.Start(c.deliver); err != nil {
		t.Fatal(err)
	}
	if err := w.Start(c.deliver); err == nil {
		t.Fatal("second Start must fail")
	}
	w.Send(0, 1, testFrame(1))
	if got := c.pair(0, 1); len(got) != 1 || frameSeq(t, got[0]) != 1 {
		t.Fatalf("frames = %v", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w.Send(0, 1, testFrame(2))
	if len(c.pair(0, 1)) != 1 {
		t.Fatal("send after close must be dropped")
	}
	if s := w.WireStats(); s.FramesSent != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTCPWireDeliversAllPairsInOrder(t *testing.T) {
	const n, k = 3, 50
	w := NewTCP(n)
	c := newCollector()
	if err := w.Start(c.deliver); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for seq := 0; seq < k; seq++ {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src != dst {
					w.Send(src, dst, testFrame(seq))
				}
			}
		}
	}
	w.Drain()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			waitFor(t, fmt.Sprintf("pair %d->%d", src, dst), func() bool {
				return len(c.pair(src, dst)) == k
			})
			// One connection and one reader per pair: arrival order is
			// send order.
			for i, f := range c.pair(src, dst) {
				if frameSeq(t, f) != i {
					t.Fatalf("pair %d->%d frame %d has seq %d", src, dst, i, frameSeq(t, f))
				}
			}
		}
	}
	if s := w.WireStats(); s.Connections != n*(n-1) || s.FramesSent != n*(n-1)*k {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTCPWireSelfSendPanics(t *testing.T) {
	w := NewTCP(2)
	if err := w.Start(func(int, int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("self-send must panic")
		}
	}()
	w.Send(1, 1, testFrame(0))
}

// TestTCPMeshLatePeerStallsOnlyItsOwnPair: a pair's dial — eight attempts
// with back-off — is its writer's business.  While the dial to a peer nobody
// listens for is retrying, a frame to a peer that is up goes through, and the
// wire still closes cleanly once the dial has given up.
func TestTCPMeshLatePeerStallsOnlyItsOwnPair(t *testing.T) {
	up := NewTCPMesh(3, 1)
	arrived := make(chan struct{})
	if err := up.Start(func(int, int, []byte) { close(arrived) }); err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	gone, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	goneAddr := gone.Addr().String()
	gone.Close() // nobody listens there any more: every dial is refused

	w := NewTCPMesh(3, 0)
	if err := w.Start(func(int, int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	defer w.Close() // on a failure too, and before up's: up's Close waits for w's connection to end
	var delivered atomic.Bool
	gaveUp := make(chan bool, 1) // the dial's one failure report: had the other pair delivered by then?
	w.OnWireError(func(error) { gaveUp <- delivered.Load() })
	w.SetPeerAddrs([]string{"", up.Addr(), goneAddr})

	w.Send(0, 2, testFrame(0))
	w.Send(0, 1, testFrame(0))
	select {
	case <-arrived:
		delivered.Store(true)
	case <-time.After(10 * time.Second):
		t.Fatal("the frame for the reachable peer never arrived")
	}
	if !<-gaveUp {
		t.Fatal("the dial to the unreachable peer ran to exhaustion before the reachable peer's frame was delivered")
	}
	if s := w.WireStats(); s.DialRetries != dialAttempts-1 || s.FramesSent != 1 {
		t.Fatalf("stats = %+v, want %d dial retries and the one frame sent", s, dialAttempts-1)
	}
	w.Send(0, 2, testFrame(1)) // dropped: the pair is dead, and it is not dialled again
	w.Drain()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if s := w.WireStats(); s.DialRetries != dialAttempts-1 {
		t.Fatalf("a send after the dial gave up dialled again: %+v", s)
	}
}

// reliableGuarantees drives k frames per ordered pair through a reliable
// stack and asserts FIFO exactly-once delivery per pair.
func reliableGuarantees(t *testing.T, r *Reliable, n, k int, c *collector) {
	t.Helper()
	var wg sync.WaitGroup
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			wg.Add(1)
			go func(src, dst int) {
				defer wg.Done()
				for seq := 0; seq < k; seq++ {
					r.Send(src, dst, testFrame(seq))
				}
			}(src, dst)
		}
	}
	wg.Wait()
	r.Drain()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			got := c.pair(src, dst)
			if len(got) != k {
				t.Fatalf("pair %d->%d delivered %d frames, want exactly %d", src, dst, len(got), k)
			}
			for i, f := range got {
				if frameSeq(t, f) != i {
					t.Fatalf("pair %d->%d frame %d has seq %d (FIFO violated)", src, dst, i, frameSeq(t, f))
				}
			}
		}
	}
}

func TestReliableOverInprocWire(t *testing.T) {
	const n, k = 3, 200
	c := newCollector()
	r := NewReliable(NewInproc(n), n)
	if err := r.Start(c.deliver); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	reliableGuarantees(t, r, n, k, c)
	s := r.WireStats()
	if s.DataFrames != int64(n*(n-1)*k) || s.Retransmits != 0 || s.DuplicatesDropped != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestReliableOverChaosFIFOExactlyOnce is the chaos harness's core
// guarantee test: under injected delays, duplicates and connection drops
// the reliable layer must still deliver every frame of a pair exactly once,
// in order — and the fault counters must prove the faults actually fired.
func TestReliableOverChaosFIFOExactlyOnce(t *testing.T) {
	const n, k = 3, 400
	c := newCollector()
	chaos := NewChaos(NewInproc(n), DefaultChaosConfig())
	r := NewReliable(chaos, n)
	if err := r.Start(c.deliver); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	reliableGuarantees(t, r, n, k, c)
	s := r.WireStats()
	if s.Delayed == 0 || s.Duplicated == 0 || s.Dropped == 0 || s.Reconnects == 0 {
		t.Fatalf("chaos injected nothing: %+v", s)
	}
	if s.Retransmits == 0 {
		t.Fatalf("drops fired but nothing was retransmitted: %+v", s)
	}
	if s.DuplicatesDropped == 0 {
		t.Fatalf("duplicates fired but none were discarded: %+v", s)
	}
}

// TestReliableOverChaosTCP runs the same guarantees over real sockets.
func TestReliableOverChaosTCP(t *testing.T) {
	const n, k = 2, 150
	c := newCollector()
	chaos := NewChaos(NewTCP(n), DefaultChaosConfig())
	r := NewReliable(chaos, n)
	if err := r.Start(c.deliver); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	reliableGuarantees(t, r, n, k, c)
	s := r.WireStats()
	if s.Dropped == 0 || s.Retransmits == 0 {
		t.Fatalf("chaos over tcp injected nothing: %+v", s)
	}
}

// TestChaosSeedIsDeterministic pins the replayability contract: for the
// same seed and the same frame send order, the chaos layer makes the same
// fault decisions.  (The bare layer is tested — a reliable layer on top
// feeds retransmissions back through Send, which perturbs the counter.)
func TestChaosSeedIsDeterministic(t *testing.T) {
	run := func() WireStats {
		chaos := NewChaos(NewInproc(2), DefaultChaosConfig())
		if err := chaos.Start(func(int, int, []byte) {}); err != nil {
			t.Fatal(err)
		}
		for seq := 0; seq < 300; seq++ {
			chaos.Send(0, 1, testFrame(seq))
		}
		chaos.Drain()
		defer chaos.Close()
		s := chaos.WireStats()
		return WireStats{Delayed: s.Delayed, Duplicated: s.Duplicated, Dropped: s.Dropped}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("fault schedule not reproducible: %+v vs %+v", a, b)
	}
	if a.Delayed == 0 || a.Duplicated == 0 || a.Dropped == 0 {
		t.Fatalf("schedule injected nothing: %+v", a)
	}
}

// TestChaosNeverDropsAFrameTwiceRunning: a resend round is as periodic as the
// drop schedule, so a window exactly DropEvery frames long, re-sent whole with
// nothing else moving, puts the same frame on the drop slot every round.  The
// frame dropped last time goes through this time.
func TestChaosNeverDropsAFrameTwiceRunning(t *testing.T) {
	got := map[int]int{}
	chaos := NewChaos(NewInproc(2), ChaosConfig{DropEvery: 4})
	if err := chaos.Start(func(_, _ int, f []byte) { got[frameSeq(t, f)]++ }); err != nil {
		t.Fatal(err)
	}
	defer chaos.Close()
	window := [][]byte{testFrame(0), testFrame(1), testFrame(2), testFrame(3)}
	for round := 0; round < 3; round++ {
		for _, f := range window {
			chaos.Send(0, 1, f)
		}
	}
	// Frame 3 sits on the drop slot in every round: lost, through, lost.
	if got[0] != 3 || got[1] != 3 || got[2] != 3 || got[3] != 1 {
		t.Fatalf("deliveries per frame %v, want 3, 3, 3 and 1", got)
	}
	if s := chaos.WireStats(); s.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", s.Dropped)
	}
}

// TestChaosDropEveryOneIsClamped pins the blackout guard.
func TestChaosDropEveryOneIsClamped(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.DropEvery = 1
	chaos := NewChaos(NewInproc(2), cfg)
	if chaos.cfg.DropEvery != 2 {
		t.Fatalf("DropEvery = %d, want clamp to 2", chaos.cfg.DropEvery)
	}
}

// TestReliableRejectsCorruptFrames pins the fail-fast posture of the
// protocol layer: garbage from the wire is a bug, not a recoverable event.
func TestReliableRejectsCorruptFrames(t *testing.T) {
	w := NewInproc(2)
	r := NewReliable(w, 2)
	if err := r.Start(func(int, int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for name, frame := range map[string][]byte{
		"empty":        {},
		"unknown-kind": {0x7F},
		"truncated":    {FrameData, 0xFF},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s frame must panic", name)
				}
			}()
			w.Send(0, 1, frame)
		}()
	}
}

// scriptedWire is a Wire the test plays the part of: it keeps what the layer
// above sends and hands it whatever the test says arrived.
type scriptedWire struct {
	deliver   DeliverFunc
	reconnect func(src, dst int)
	sent      []scriptedFrame
	onDrain   func() // what the wire does while the layer above drains it
}

type scriptedFrame struct {
	src, dst int
	frame    []byte
}

func (w *scriptedWire) Start(deliver DeliverFunc) error { w.deliver = deliver; return nil }
func (w *scriptedWire) Send(src, dst int, frame []byte) {
	w.sent = append(w.sent, scriptedFrame{src, dst, frame})
}
func (w *scriptedWire) Drain() {
	if w.onDrain != nil {
		w.onDrain()
	}
}
func (w *scriptedWire) Close() error                      { return nil }
func (w *scriptedWire) Name() string                      { return "scripted" }
func (w *scriptedWire) OnReconnect(fn func(src, dst int)) { w.reconnect = fn }

// take hands over what was sent since the last take.
func (w *scriptedWire) take() []scriptedFrame {
	sent := w.sent
	w.sent = nil
	return sent
}

// pump plays a perfect wire: it delivers what was sent, then what that made
// the layer send, until nothing is left, showing each frame to see first.
func (w *scriptedWire) pump(see func(scriptedFrame)) {
	for len(w.sent) > 0 {
		for _, f := range w.take() {
			see(f)
			w.deliver(f.src, f.dst, f.frame)
		}
	}
}

// inWindow is the number of envelopes the pair keeps for retransmission.
func inWindow(r *Reliable, src, dst int) int {
	s := &r.send[r.pair(src, dst)]
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.unacked())
}

// TestReliableWindowAcksAndResends pins the sender's retransmit window: a
// cumulative ack releases a prefix, duplicate and stale acks release nothing, a
// resend round re-sends exactly what is left, in sequence order and byte for
// byte — the acknowledgement an envelope was built with included — and the
// drain diagnostic names the window's bounds.
func TestReliableWindowAcksAndResends(t *testing.T) {
	w := &scriptedWire{}
	r := NewReliable(w, 2)
	if err := r.Start(func(int, int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 5; seq++ {
		r.Send(0, 1, testFrame(seq))
	}
	first := w.take()
	window := func(want string) {
		t.Helper()
		if got := r.describeUnacked(); got != want {
			t.Fatalf("unacked =%q, want %q", got, want)
		}
	}
	ack := func(cum uint64) { w.deliver(1, 0, EncodeAck(0, 1, cum)) }

	window(" pair 0->1: 5 unacked (seq 0..4);")
	ack(1)
	window(" pair 0->1: 3 unacked (seq 2..4);")
	ack(1) // duplicate
	ack(0) // stale
	window(" pair 0->1: 3 unacked (seq 2..4);")

	// Three envelopes arrive the other way before the reconnect: what is
	// re-sent still says "nothing to acknowledge", as it did when it was built.
	for seq := uint64(0); seq < 3; seq++ {
		w.deliver(1, 0, encodeRelData(seq, 0, testFrame(int(seq))))
	}
	w.reconnect(0, 1)
	resent := w.take()
	if len(resent) != 3 {
		t.Fatalf("resend round sent %d frames, want the 3 unacked ones", len(resent))
	}
	for i, f := range resent {
		if !bytes.Equal(f.frame, first[2+i].frame) {
			t.Fatalf("resent frame %d is %x, want envelope seq %d %x", i, f.frame, 2+i, first[2+i].frame)
		}
		if _, ack, _, _ := decodeRelData(f.frame); ack != 0 {
			t.Fatalf("resent frame %d acknowledges %d, want the 0 it was built with", i, ack)
		}
	}
	if got := r.WireStats().Retransmits; got != 3 {
		t.Fatalf("Retransmits = %d, want 3", got)
	}
	// The peer never answers: the drain sends the acknowledgement it owes,
	// then gives up with the diagnostic, word for word.
	err := r.DrainErr(time.Millisecond)
	if want := "transport: reliable drain stuck after 1ms: pair 0->1: 3 unacked (seq 2..4);"; err == nil || err.Error() != want {
		t.Fatalf("drain of an unacknowledged window: %v, want %q", err, want)
	}
	if owed := w.take(); len(owed) != 1 || !bytes.Equal(owed[0].frame, EncodeAck(1, 0, 2)) || owed[0].src != 0 || owed[0].dst != 1 {
		t.Fatalf("the drain sent %+v, want the one acknowledgement owed to pair 1->0", owed)
	}

	r.Send(0, 1, testFrame(5)) // the window keeps growing behind a released prefix
	if _, ack, _, _ := decodeRelData(w.take()[0].frame); ack != 3 {
		t.Fatalf("a fresh envelope acknowledges %d, want 3 (seq 0..2 of the reverse pair arrived)", ack)
	}
	ack(3)
	window(" pair 0->1: 2 unacked (seq 4..5);")
	ack(99) // beyond anything sent: releases what there is, no more
	window(" (no unacked frames)")
	if err := r.DrainErr(time.Hour); err != nil {
		t.Fatal(err)
	}
	if sent := w.take(); len(sent) != 0 {
		t.Fatalf("a drain that owes nothing sent %+v", sent)
	}
	r.Send(0, 1, testFrame(6))
	window(" pair 0->1: 1 unacked (seq 6..6);")
}

// TestReliablePingPongNeedsNoAckFrames: with traffic both ways every
// acknowledgement rides on a data frame — a reply acknowledges its request,
// the next request the reply — so the wire carries data frames only and a
// window holds what is in flight, not a backlog.
func TestReliablePingPongNeedsNoAckFrames(t *testing.T) {
	const trips = 1000
	w := &scriptedWire{}
	r := NewReliable(w, 2)
	replies := 0
	if err := r.Start(func(src, dst int, frame []byte) {
		if dst == 1 {
			r.Send(1, 0, frame) // the reply, from inside the callback
		} else {
			replies++
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < trips; i++ {
		r.Send(0, 1, testFrame(i))
		w.pump(func(f scriptedFrame) {
			if f.frame[0] != FrameData {
				t.Fatalf("round trip %d put a frame of kind 0x%02x on the wire", i, f.frame[0])
			}
			if a, b := inWindow(r, 0, 1), inWindow(r, 1, 0); a > 2 || b > 2 {
				t.Fatalf("round trip %d: windows hold %d and %d envelopes, want at most 2", i, a, b)
			}
		})
	}
	if s := r.WireStats(); replies != trips || s.DataFrames != 2*trips || s.Acks != 0 {
		t.Fatalf("%d replies, stats %+v: want %d replies, %d data frames, no ack frame", replies, s, trips, 2*trips)
	}
	// The last reply is the one frame nothing acknowledged; the drain does.
	if a, b := inWindow(r, 0, 1), inWindow(r, 1, 0); a != 0 || b != 1 {
		t.Fatalf("windows at rest hold %d and %d envelopes, want 0 and 1", a, b)
	}
	w.onDrain = func() { w.pump(func(scriptedFrame) {}) }
	if err := r.DrainErr(time.Hour); err != nil {
		t.Fatal(err)
	}
	if s := r.WireStats(); s.Acks != 1 || inWindow(r, 1, 0) != 0 {
		t.Fatalf("after the drain: stats %+v, %d envelopes kept; want one ack frame and none", s, inWindow(r, 1, 0))
	}
}

// TestReliableOneWayStreamAcksAtThreshold: a stream nothing answers gets one
// stand-alone acknowledgement per ackEvery arrivals — or per ackBytes bytes —
// so the sender's window never outgrows the threshold.
func TestReliableOneWayStreamAcksAtThreshold(t *testing.T) {
	w := &scriptedWire{}
	r := NewReliable(w, 2)
	if err := r.Start(func(int, int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	for i := 0; i < rounds*ackEvery; i++ {
		r.Send(0, 1, testFrame(i))
		w.pump(func(scriptedFrame) {})
		if got, want := r.WireStats().Acks, int64((i+1)/ackEvery); got != want {
			t.Fatalf("after %d arrivals %d ack frames were sent, want %d", i+1, got, want)
		}
		if got, want := inWindow(r, 0, 1), (i+1)%ackEvery; got != want {
			t.Fatalf("after %d arrivals the window holds %d envelopes, want %d", i+1, got, want)
		}
	}
	// Bytes count as well as frames: one frame of ackBytes is acknowledged at
	// once, the small one before it included.
	r.Send(0, 1, testFrame(0))
	r.Send(0, 1, make([]byte, ackBytes))
	w.pump(func(scriptedFrame) {})
	if got := r.WireStats().Acks; got != rounds+1 {
		t.Fatalf("%d ack frames after a frame of ackBytes, want %d", got, rounds+1)
	}
	if got := inWindow(r, 0, 1); got != 0 {
		t.Fatalf("the window holds %d envelopes after the byte threshold's ack, want 0", got)
	}
}

// TestReliablePiggyBackedAcks plays the peer by hand: whatever happens to the
// envelopes that carry them — held back, overtaken, delivered twice, re-sent
// with an old value, lost — piggy-backed acknowledgements release the prefix
// they name, or nothing.
func TestReliablePiggyBackedAcks(t *testing.T) {
	w := &scriptedWire{}
	r := NewReliable(w, 2)
	if err := r.Start(func(int, int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 8; seq++ {
		r.Send(0, 1, testFrame(seq))
	}
	w.take()
	// The peer's envelope seq of pair 1->0, acknowledging ack-1 of pair 0->1.
	arrive := func(seq, ack uint64) { w.deliver(1, 0, encodeRelData(seq, ack, testFrame(int(seq)))) }
	window := func(step string, lo, hi int) {
		t.Helper()
		want := fmt.Sprintf(" pair 0->1: %d unacked (seq %d..%d);", hi-lo+1, lo, hi)
		if got := r.describeUnacked(); got != want {
			t.Fatalf("%s: unacked =%q, want %q", step, got, want)
		}
	}
	arrive(0, 0)
	window("an envelope with nothing to acknowledge", 0, 7)
	arrive(1, 1)
	window("an acknowledgement of seq 0", 1, 7)
	// Envelope 2 (ack 2) is held back and envelope 3 (ack 4) overtakes it:
	// the later acknowledgement covers the earlier one.
	arrive(3, 4)
	window("a later acknowledgement, arriving first", 4, 7)
	arrive(2, 2)
	window("the delayed one, now stale", 4, 7)
	arrive(3, 4)
	window("a duplicate", 4, 7)
	// Envelope 4 (ack 5) is lost and re-sent after envelope 5 (ack 6) went
	// through: the retransmission carries the 5 it was built with.
	arrive(5, 6)
	window("the acknowledgement after a lost one", 6, 7)
	arrive(4, 5)
	window("the retransmission of the lost one", 6, 7)
	arrive(6, 99)
	if got := r.describeUnacked(); got != " (no unacked frames)" {
		t.Fatalf("an acknowledgement beyond anything sent: unacked =%q, want everything released", got)
	}
	// The duplicate was answered at once, cumulatively; nothing else was.
	if sent := w.take(); len(sent) != 1 || !bytes.Equal(sent[0].frame, EncodeAck(1, 0, 3)) {
		t.Fatalf("the peer was sent %+v, want one ack frame (through seq 3) for the duplicate", sent)
	}
	if s := r.WireStats(); s.DuplicatesDropped != 1 || s.OutOfOrder != 2 || s.Acks != 1 {
		t.Fatalf("stats = %+v, want 1 duplicate, 2 early arrivals, 1 ack frame", s)
	}
}

// TestReliableDrainWaitsForTheAck: a burst shorter than the threshold leaves
// acknowledgements owed on a real socket; the drain asks for them and returns
// when the last one lands — its budget here is an hour.
func TestReliableDrainWaitsForTheAck(t *testing.T) {
	c := newCollector()
	r := NewReliable(NewTCP(2), 2)
	if err := r.Start(c.deliver); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for round := 0; round < 20; round++ {
		for seq := 0; seq < ackEvery-1; seq++ {
			r.Send(0, 1, testFrame(seq))
		}
		if err := r.DrainErr(time.Hour); err != nil {
			t.Fatal(err)
		}
		if got, want := len(c.pair(0, 1)), (round+1)*(ackEvery-1); got != want {
			t.Fatalf("round %d: %d frames delivered when the drain returned, want %d", round, got, want)
		}
	}
	if s := r.WireStats(); s.Acks == 0 || s.Acks > 20*(ackEvery-1) {
		t.Fatalf("stats = %+v: want at least one ack frame, at most one per arrival", s)
	}
}

// TestFramesAreNeverWrittenAfterSend pins the ownership contract of Wire.Send
// that zero-copy decoding leans on: a frame is immutable from Send on, so one
// slice can be sent many times, a delivered frame can be sent on from inside
// the deliver callback, and every delivery is byte-equal to the original —
// over the in-process wire, over sockets, and with chaos holding frames back
// to duplicate and delay them.
func TestFramesAreNeverWrittenAfterSend(t *testing.T) {
	stacks := map[string]func() Wire{
		"reliable+inproc": func() Wire { return NewInproc(2) },
		"reliable+tcp":    func() Wire { return NewTCP(2) },
		"reliable+chaos": func() Wire {
			cfg := DefaultChaosConfig()
			cfg.DelayEvery, cfg.DuplicateEvery, cfg.DropEvery = 2, 3, 5
			return NewChaos(NewInproc(2), cfg)
		},
	}
	for name, inner := range stacks {
		t.Run(name, func(t *testing.T) {
			// A batch frame with an argument and padding, as the adapter builds them.
			original := EncodeBatch(BatchHeader{Src: 0, Dst: 1, Seq: 3, PayloadBytes: 40},
				[]RequestDescriptor{{Handle: 2, Kind: KindAsync, Bytes: 40, Op: 77, Arg: []byte("argument bytes")}})
			frame := append([]byte(nil), original...)
			const sends = 3
			var mu sync.Mutex
			arrived := map[int]int{}
			r := NewReliable(inner(), 2)
			check := func(src, dst int, got []byte) {
				mu.Lock()
				defer mu.Unlock()
				arrived[dst]++
				if !bytes.Equal(got, original) {
					t.Errorf("delivery %d->%d is %x, want the frame as it was sent %x", src, dst, got, original)
				}
			}
			if err := r.Start(func(src, dst int, got []byte) {
				check(src, dst, got)
				if dst == 1 {
					r.Send(1, 0, got) // a delivered frame is as good as a fresh one
				}
			}); err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for i := 0; i < sends; i++ {
				r.Send(0, 1, frame)
			}
			// An echo is sent before the frame it answers is acknowledged, so
			// one drain covers both directions.
			r.Drain()
			mu.Lock()
			defer mu.Unlock()
			if arrived[1] != sends || arrived[0] != sends {
				t.Fatalf("deliveries: %d forward, %d echoed, want %d each", arrived[1], arrived[0], sends)
			}
			if !bytes.Equal(frame, original) {
				t.Fatalf("the sender's slice was written to: %x, was %x", frame, original)
			}
		})
	}
}
