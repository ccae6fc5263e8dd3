package transport

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
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
	sent      [][]byte
}

func (w *scriptedWire) Start(deliver DeliverFunc) error   { w.deliver = deliver; return nil }
func (w *scriptedWire) Send(_, _ int, frame []byte)       { w.sent = append(w.sent, frame) }
func (w *scriptedWire) Drain()                            {}
func (w *scriptedWire) Close() error                      { return nil }
func (w *scriptedWire) Name() string                      { return "scripted" }
func (w *scriptedWire) OnReconnect(fn func(src, dst int)) { w.reconnect = fn }

// TestReliableWindowAcksAndResends pins the sender's retransmit window: a
// cumulative ack releases a prefix, duplicate and stale acks release nothing, a
// resend round re-sends exactly what is left, in sequence order and byte for
// byte, and the drain diagnostic names the window's bounds.
func TestReliableWindowAcksAndResends(t *testing.T) {
	w := &scriptedWire{}
	r := NewReliable(w, 2)
	if err := r.Start(func(int, int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 5; seq++ {
		r.Send(0, 1, testFrame(seq))
	}
	first := append([][]byte(nil), w.sent...)
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

	w.sent = nil
	w.reconnect(0, 1)
	if len(w.sent) != 3 {
		t.Fatalf("resend round sent %d frames, want the 3 unacked ones", len(w.sent))
	}
	for i, f := range w.sent {
		if !bytes.Equal(f, first[2+i]) {
			t.Fatalf("resent frame %d is %x, want envelope seq %d %x", i, f, 2+i, first[2+i])
		}
	}
	if got := r.WireStats().Retransmits; got != 3 {
		t.Fatalf("Retransmits = %d, want 3", got)
	}
	if err := r.DrainErr(time.Millisecond); err == nil || !strings.Contains(err.Error(), "pair 0->1: 3 unacked (seq 2..4);") {
		t.Fatalf("drain of an unacknowledged window: %v", err)
	}

	r.Send(0, 1, testFrame(5)) // the window keeps growing behind a released prefix
	ack(3)
	window(" pair 0->1: 2 unacked (seq 4..5);")
	ack(99) // beyond anything sent: releases what there is, no more
	window(" (no unacked frames)")
	if err := r.DrainErr(time.Second); err != nil {
		t.Fatal(err)
	}
	r.Send(0, 1, testFrame(6))
	window(" pair 0->1: 1 unacked (seq 6..6);")
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
