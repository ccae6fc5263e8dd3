package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosConfig schedules the faults the chaos wrapper injects into data
// frames.  The Every counters are frame-count periods (0 disables a fault);
// the seeded generator draws the delay durations, so a given seed replays
// the same fault decisions for the same frame arrival order.
type ChaosConfig struct {
	// Seed seeds the delay generator.
	Seed int64
	// DelayEvery delays every k-th data frame by a random duration in
	// [MaxDelay/2, MaxDelay), letting later frames overtake it.
	DelayEvery int
	MaxDelay   time.Duration
	// DuplicateEvery sends every k-th data frame twice (the copy after a
	// short random delay, so the duplicate can arrive out of order too).
	DuplicateEvery int
	// DropEvery discards every k-th data frame outright — simulating a
	// connection that died with frames in flight — and then signals a
	// reconnect for the pair, which prompts the reliable layer to
	// retransmit everything unacknowledged.
	DropEvery int
	// ReconnectDelay is the pause between a drop and its reconnect signal.
	ReconnectDelay time.Duration
}

// DefaultChaosConfig returns a schedule that exercises all three faults
// heavily without making tests crawl: frequent small delays, regular
// duplicates, and a forced connection drop every 40th data frame.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Seed:           1,
		DelayEvery:     5,
		MaxDelay:       300 * time.Microsecond,
		DuplicateEvery: 7,
		DropEvery:      40,
		ReconnectDelay: 100 * time.Microsecond,
	}
}

// Chaos wraps a Wire and injects faults into data frames (frames whose
// kind byte is FrameData).  Control traffic — acknowledgements and the
// reliable layer's retransmissions are indistinguishable from first sends,
// so those ARE subject to chaos again; only FrameAck frames pass through
// untouched, which is what lets the protocol's recovery terminate.
type Chaos struct {
	inner Wire
	cfg   ChaosConfig

	mu    sync.Mutex
	rng   *rand.Rand
	count int64
	// droppedLast holds the frames (by the address of their first byte: a frame is
	// immutable and is retransmitted as the same slice) whose last pass through
	// Send was dropped.  See Send.
	droppedLast map[*byte]struct{}

	onReconnect atomic.Pointer[func(src, dst int)]
	inFlight    sync.WaitGroup
	closed      atomic.Bool

	delayed    atomic.Int64
	duplicated atomic.Int64
	dropped    atomic.Int64
	reconnects atomic.Int64
}

// NewChaos wraps inner with fault injection.
func NewChaos(inner Wire, cfg ChaosConfig) *Chaos {
	if cfg.ReconnectDelay <= 0 {
		cfg.ReconnectDelay = 100 * time.Microsecond
	}
	if cfg.DropEvery == 1 {
		// Dropping EVERY data frame is a total blackout: retransmissions are
		// data frames too, so nothing would ever get through and recovery
		// could not terminate.  Clamp to the heaviest loss that still makes
		// progress.
		cfg.DropEvery = 2
	}
	return &Chaos{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), droppedLast: map[*byte]struct{}{}}
}

// Start brings up the inner wire.
func (c *Chaos) Start(deliver DeliverFunc) error { return c.inner.Start(deliver) }

// OnReconnect registers the handler invoked after an injected connection
// drop (reconnectSignaler; the reliable layer retransmits from it).
func (c *Chaos) OnReconnect(fn func(src, dst int)) { c.onReconnect.Store(&fn) }

// OnWireError forwards asynchronous-failure reporting to the inner wire
// (ErrorSink); injected faults are schedule, not failures, and stay silent.
func (c *Chaos) OnWireError(fn func(err error)) {
	if es, ok := c.inner.(ErrorSink); ok {
		es.OnWireError(fn)
	}
}

// Send applies the fault schedule to data frames and forwards everything
// else untouched.
func (c *Chaos) Send(src, dst int, frame []byte) {
	if c.closed.Load() {
		return
	}
	if len(frame) == 0 || frame[0] != FrameData {
		c.inner.Send(src, dst, frame)
		return
	}
	c.mu.Lock()
	c.count++
	n := c.count
	drop := c.cfg.DropEvery > 0 && n%int64(c.cfg.DropEvery) == 0
	if drop {
		// No frame is dropped twice running.  The schedule is periodic and so
		// is a resend round: when nothing else is moving and the unacknowledged
		// window is a multiple of DropEvery frames long, every round puts the
		// same frames on the drop slots, and without this the missing one is
		// lost again each time, for ever.
		if _, again := c.droppedLast[&frame[0]]; again {
			delete(c.droppedLast, &frame[0])
			drop = false
		} else {
			c.droppedLast[&frame[0]] = struct{}{}
		}
	}
	dup := !drop && c.cfg.DuplicateEvery > 0 && n%int64(c.cfg.DuplicateEvery) == 0
	delay := time.Duration(0)
	if !drop && c.cfg.DelayEvery > 0 && n%int64(c.cfg.DelayEvery) == 0 && c.cfg.MaxDelay > 0 {
		half := c.cfg.MaxDelay / 2
		delay = half + time.Duration(c.rng.Int63n(int64(half)))
	}
	dupDelay := time.Duration(0)
	if dup && c.cfg.MaxDelay > 0 {
		dupDelay = time.Duration(c.rng.Int63n(int64(c.cfg.MaxDelay)))
	}
	c.mu.Unlock()

	switch {
	case drop:
		// The frame dies with the connection; the pair reconnects shortly
		// after and the layer above learns it must retransmit.
		c.dropped.Add(1)
		c.spawn(c.cfg.ReconnectDelay, func() {
			c.reconnects.Add(1)
			if fn := c.onReconnect.Load(); fn != nil {
				(*fn)(src, dst)
			}
		})
	case dup:
		c.duplicated.Add(1)
		c.inner.Send(src, dst, frame)
		c.spawn(dupDelay, func() { c.inner.Send(src, dst, frame) })
	case delay > 0:
		c.delayed.Add(1)
		c.spawn(delay, func() { c.inner.Send(src, dst, frame) })
	default:
		c.inner.Send(src, dst, frame)
	}
}

// spawn runs fn after d on a tracked goroutine, so Drain can wait for every
// delayed fault to play out.
func (c *Chaos) spawn(d time.Duration, fn func()) {
	c.inFlight.Add(1)
	go func() {
		defer c.inFlight.Done()
		if d > 0 {
			time.Sleep(d)
		}
		if !c.closed.Load() {
			fn()
		}
	}()
}

// Drain waits for delayed frames and pending reconnect signals, then drains
// the inner wire.
func (c *Chaos) Drain() {
	c.inFlight.Wait()
	c.inner.Drain()
}

// Close stops fault injection and shuts the inner wire down.
func (c *Chaos) Close() error {
	c.closed.Store(true)
	c.inFlight.Wait()
	return c.inner.Close()
}

// Name identifies the stack.
func (c *Chaos) Name() string { return "chaos+" + c.inner.Name() }

// WireStats reports injected faults plus the inner wire's traffic.
func (c *Chaos) WireStats() WireStats {
	s := WireStats{
		Delayed:    c.delayed.Load(),
		Duplicated: c.duplicated.Load(),
		Dropped:    c.dropped.Load(),
		Reconnects: c.reconnects.Load(),
	}
	s.Add(innerStats(c.inner))
	return s
}
