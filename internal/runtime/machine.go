package runtime

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Handle identifies a distributed p_object: every location holding a
// representative of the same shared object registers it and obtains the same
// handle, which is then used to address the object's peers in RMIs.
type Handle int32

// InvalidHandle is the zero value that no registered object ever receives.
const InvalidHandle Handle = -1

// Config controls machine-wide behaviour of the simulated RTS.
type Config struct {
	// Aggregation is the number of asynchronous RMIs buffered per
	// destination before the buffer is flushed as a single batch
	// (the paper's message-aggregation optimisation).  A value <= 1
	// disables aggregation.
	Aggregation int

	// RemoteDelay, when non-nil, returns an artificial latency injected
	// before delivering a request from src to dst.  It is used to model
	// machine topology (e.g. intra-node vs. inter-node placement in the
	// Fig. 41 experiment).  A nil function means no added delay.
	RemoteDelay func(src, dst int) time.Duration

	// Seed seeds each location's private random number generator
	// deterministically (location id is mixed in).
	Seed int64

	// Transport builds the interconnect used for remote requests.  Nil
	// selects the transport named by the PCF_TRANSPORT environment variable
	// (in-process delivery when that is unset).  The factory runs at the
	// start of every Execute and the transport is drained and closed at the
	// end, so wire resources only live while SPMD code runs.
	Transport TransportFactory

	// StallTimeout arms the progress watchdog: when requests are pending
	// but no machine counter moves for this long, the run aborts with a
	// FaultStall diagnosing the frozen counters.  Zero consults the
	// PCF_STALL_TIMEOUT environment variable (disabled when unset);
	// negative disables the watchdog outright.
	StallTimeout time.Duration

	// FaultInjection, when non-nil, deterministically injects one fault
	// into every Execute run (see SeededFaultInjection).  Nil consults the
	// PCF_CHAOS_PANIC / PCF_CHAOS_STALL environment variables.
	FaultInjection *FaultInjection
}

// DefaultConfig returns the configuration used when none is supplied:
// aggregation of 16 requests, no artificial latency.
func DefaultConfig() Config {
	return Config{Aggregation: 16, Seed: 1}
}

// Machine simulates a parallel machine composed of a fixed number of
// locations.  It owns the interconnect (mailboxes), the collective-operation
// scratch space and the global quiescence counters used by Fence.
type Machine struct {
	cfg       Config
	locations []*Location
	// driven are the locations whose SPMD body and server this process runs:
	// all of them, or the one of this rank in a launched job.
	driven []*Location

	// pending counts RMIs that have been sent (or buffered) but whose
	// handlers have not yet completed.  Fence waits for it to reach zero.
	// pendingBySrc tracks the same per issuing location, for the
	// one-sided fence.  The decrement that takes either to zero broadcasts
	// quiesceCv if quiesceWaiters says somebody sleeps on it: quiescence is an
	// event, nobody polls for it — and with one blocking read in flight every
	// completion is a zero-crossing, so nobody announces it to an empty room.
	pending        atomic.Int64
	pendingBySrc   []atomic.Int64
	quiesceMu      sync.Mutex
	quiesceCv      *sync.Cond
	quiesceWaiters atomic.Int32
	// draining counts the driven locations inside a fence, from their entry
	// until the machine was seen quiescent (the run loop sets it to all of
	// them once every body has returned).  While it equals len(driven) no
	// top-level code can issue anything, so nobody is left to fill an
	// aggregation buffer to its threshold and a server flushes what its
	// handlers buffered when it finishes a mailbox batch.
	draining atomic.Int32
	// servers tracks the running RMI server goroutines.
	servers sync.WaitGroup

	// barrier state (central, sense-reversing).
	barMu    sync.Mutex
	barCv    *sync.Cond
	barCount int
	barPhase int

	// collective scratch: one slot per location, plus a broadcast slot.
	collectMu   sync.Mutex
	collectVals []any

	// transport is the interconnect for the Execute run in progress; it is
	// built from transportFactory when Execute starts and torn down when it
	// ends.  lastWire* retain the final wire identity and traffic counters
	// of the most recent run for post-Execute inspection.
	transportFactory TransportFactory
	transport        Transport
	lastWireName     string
	lastWireStats    transport.WireStats

	// Fault-containment state, reset at the start of every run.  abortCh
	// closes when the machine aborts; a blocking primitive selects on it,
	// re-checks aborted() from its condition-variable wait loop, or is woken
	// by the abort's broadcast (Location.unpark).
	abortCh      chan struct{}
	abortOnce    *sync.Once
	faultMu      sync.Mutex
	faults       []*LocationFault
	status       []LocationStatus
	watchdogStop chan struct{}
	watchdogDone chan struct{}
	stallTimeout time.Duration

	// Multi-process state.  proc is non-nil when this machine runs as one
	// rank of a launched job (see proc.go): the SPMD body executes only for
	// locations[proc.rank], collectives run over the launcher's control
	// plane, and onFault forwards locally raised faults to the hub.
	// foldedStats/foldedWire hold the job-wide sums gathered at the end of a
	// clean proc-mode run, so Stats() reports machine-wide totals exactly as
	// an in-process run would.
	proc        *procRuntime
	onFault     func(*LocationFault) // guarded by faultMu
	foldedStats *Stats
	foldedWire  *transport.WireStats
}

// Stats is a folded snapshot of the machine-wide communication statistics.
// The live counters are sharded per location (see statShard) so that the
// element-access hot path never touches a machine-global cache line;
// Machine.Stats sums the shards on demand.
type Stats struct {
	RMIsSent       int64 // RMI requests issued (a bulk request counts once)
	MessagesSent   int64 // physical messages (batches) delivered
	RMIsHandled    int64 // handlers executed
	SyncRMIs       int64
	AsyncRMIs      int64
	BulkRMIs       int64 // bulk requests issued
	BulkOps        int64 // element operations carried by bulk requests
	DirectoryRMIs  int64 // RMIs carrying directory maintenance (publish, fill, epoch)
	Fences         int64
	BytesSimulated int64
	SizerMisses    int64 // payload sizes guessed because no sizer tier matched
}

// Add returns the field-wise sum of two snapshots.
func (s Stats) Add(o Stats) Stats {
	s.RMIsSent += o.RMIsSent
	s.MessagesSent += o.MessagesSent
	s.RMIsHandled += o.RMIsHandled
	s.SyncRMIs += o.SyncRMIs
	s.AsyncRMIs += o.AsyncRMIs
	s.BulkRMIs += o.BulkRMIs
	s.BulkOps += o.BulkOps
	s.DirectoryRMIs += o.DirectoryRMIs
	s.Fences += o.Fences
	s.BytesSimulated += o.BytesSimulated
	s.SizerMisses += o.SizerMisses
	return s
}

// Sub returns the field-wise difference s − o (the delta between two
// snapshots of the same counters).
func (s Stats) Sub(o Stats) Stats {
	s.RMIsSent -= o.RMIsSent
	s.MessagesSent -= o.MessagesSent
	s.RMIsHandled -= o.RMIsHandled
	s.SyncRMIs -= o.SyncRMIs
	s.AsyncRMIs -= o.AsyncRMIs
	s.BulkRMIs -= o.BulkRMIs
	s.BulkOps -= o.BulkOps
	s.DirectoryRMIs -= o.DirectoryRMIs
	s.Fences -= o.Fences
	s.BytesSimulated -= o.BytesSimulated
	s.SizerMisses -= o.SizerMisses
	return s
}

// statShard holds one location's contribution to the machine statistics.
// The counters stay atomic — a location's SPMD goroutine and its RMI server
// both write them — but they are private to the location, so updates from
// different locations never contend on the same cache line the way the old
// machine-global atomics did.  The shard is padded to a cache line to keep
// neighbouring locations' shards from false sharing.
type statShard struct {
	rmisSent       atomic.Int64
	messagesSent   atomic.Int64
	rmisHandled    atomic.Int64
	syncRMIs       atomic.Int64
	asyncRMIs      atomic.Int64
	bulkRMIs       atomic.Int64
	bulkOps        atomic.Int64
	directoryRMIs  atomic.Int64
	fences         atomic.Int64
	bytesSimulated atomic.Int64
	sizerMisses    atomic.Int64
	_              [40]byte // pad to a multiple of 64 bytes
}

// NewMachine creates a machine with p locations and the given configuration.
func NewMachine(p int, cfg Config) *Machine {
	if p <= 0 {
		panic(fmt.Sprintf("runtime: machine needs at least one location, got %d", p))
	}
	if cfg.Aggregation <= 0 {
		cfg.Aggregation = 1
	}
	if cfg.FaultInjection == nil {
		cfg.FaultInjection = faultInjectionFromEnv(p)
	}
	m := &Machine{cfg: cfg}
	m.transportFactory = cfg.Transport
	if m.transportFactory == nil {
		m.transportFactory = TransportFromEnv()
	}
	switch {
	case cfg.StallTimeout > 0:
		m.stallTimeout = cfg.StallTimeout
	case cfg.StallTimeout == 0:
		m.stallTimeout = stallTimeoutFromEnv()
	}
	if m.stallTimeout <= 0 && cfg.FaultInjection != nil && cfg.FaultInjection.Kind == FaultStall {
		// A stall injection with no watchdog would deadlock by construction:
		// only the watchdog's abort releases the injected stall.
		m.stallTimeout = defaultInjectedStallTimeout
	}
	m.quiesceCv = sync.NewCond(&m.quiesceMu)
	m.barCv = sync.NewCond(&m.barMu)
	m.collectVals = make([]any, p)
	m.pendingBySrc = make([]atomic.Int64, p)
	m.locations = make([]*Location, p)
	for i := 0; i < p; i++ {
		m.locations[i] = newLocation(m, i, p, cfg)
	}
	m.driven = m.locations
	if isProcFactory(m.transportFactory) {
		rt, err := procConnect()
		if err != nil {
			panic(fmt.Sprintf("runtime: proc transport requires a launched child: %v", err))
		}
		if p != rt.n {
			panic(fmt.Sprintf("runtime: proc machine needs one location per process: %d locations, %d processes", p, rt.n))
		}
		m.proc = rt
		m.driven = m.locations[rt.rank : rt.rank+1]
	}
	return m
}

// NumLocations reports the number of locations in the machine.
func (m *Machine) NumLocations() int { return len(m.locations) }

// Location returns the location with the given id (for inspection in tests).
func (m *Machine) Location(id int) *Location { return m.locations[id] }

// Stats folds the per-location statistic shards into one machine-wide
// snapshot.  It may be called while the machine is running; each counter is
// read atomically, but the snapshot as a whole is not a consistent cut.
func (m *Machine) Stats() Stats {
	if m.foldedStats != nil {
		return *m.foldedStats
	}
	return m.foldShards()
}

// foldShards sums this process's per-location statistic shards.
func (m *Machine) foldShards() Stats {
	var s Stats
	for _, l := range m.locations {
		s = s.Add(l.Stats())
	}
	return s
}

// Stats reports this location's own share of the machine statistics — the
// counters attributed to requests this location issued and handlers it ran.
// Unlike Machine.Stats, the share is meaningful mid-run on EVERY transport,
// including multi-process (where a mid-run machine-wide fold would need a
// collective): SPMD code that wants a machine-wide mid-run delta snapshots
// per-location shares and sums them with a collective of its own (see
// bench.measuredRun).
func (l *Location) Stats() Stats {
	return Stats{
		RMIsSent:       l.stats.rmisSent.Load(),
		MessagesSent:   l.stats.messagesSent.Load(),
		RMIsHandled:    l.stats.rmisHandled.Load(),
		SyncRMIs:       l.stats.syncRMIs.Load(),
		AsyncRMIs:      l.stats.asyncRMIs.Load(),
		BulkRMIs:       l.stats.bulkRMIs.Load(),
		BulkOps:        l.stats.bulkOps.Load(),
		DirectoryRMIs:  l.stats.directoryRMIs.Load(),
		Fences:         l.stats.fences.Load(),
		BytesSimulated: l.stats.bytesSimulated.Load(),
		SizerMisses:    l.stats.sizerMisses.Load(),
	}
}

// TransportName reports the transport of the most recent Execute run (the
// transport of the run in progress, while one is running).
func (m *Machine) TransportName() string {
	if t := m.transport; t != nil {
		return t.Name()
	}
	return m.lastWireName
}

// WireStats reports the wire-level traffic counters of the most recent
// Execute run.  In-process transports report all zeros; wire transports
// report frames, bytes, protocol and fault-injection counters.  Unlike
// Stats, these counters are transport-DEPENDENT by design — they describe
// the wire, not the workload.
func (m *Machine) WireStats() transport.WireStats {
	if m.foldedWire != nil {
		return *m.foldedWire
	}
	if t := m.transport; t != nil {
		return t.WireStats()
	}
	return m.lastWireStats
}

// Drain budgets: a clean run gives the wire the full reliable-protocol
// window to collect its acknowledgements; an aborted run bounds the drain so
// a dead peer cannot hold the machine hostage.  abortUnwindGrace bounds how
// long an aborted run waits for SPMD and server goroutines to unwind
// cooperatively — a location stuck in non-cooperative compute (an infinite
// loop that never touches a runtime primitive) cannot be preempted, and
// after the grace the run returns its fault anyway rather than deadlock.
const (
	fullDrainBudget  = 60 * time.Second
	abortDrainBudget = 2 * time.Second
	abortUnwindGrace = 30 * time.Second
)

// Execute runs fn in SPMD fashion: one goroutine per location, each passed
// its own Location.  Incoming RMIs are served concurrently by per-location
// server goroutines.  Execute returns when every SPMD goroutine has returned
// and all outstanding RMIs have been handled.  A fault anywhere in the run
// — a handler or body panic, a stall, a wire failure — aborts the machine
// and panics with the resulting *MachineFault on the caller's goroutine
// (the pre-containment behaviour, minus the deadlock); use ExecuteErr to
// handle faults as values.
func (m *Machine) Execute(fn func(loc *Location)) {
	if fault := m.ExecuteErr(fn); fault != nil {
		panic(fault)
	}
}

// ExecuteErr is Execute with structured failure propagation: it returns nil
// for a clean run, or a *MachineFault naming the first fault and the
// per-location outcome.  A fault on any location triggers a machine-wide
// cooperative abort — every location parked in a barrier, fence, future,
// synchronous response or mailbox wait is unblocked within a bounded drain
// instead of deadlocking — and the machine is reusable for another run
// afterwards (its containers' contents, however, are whatever the aborted
// run left behind).
//
// This is the only run loop: it drives m.driven — every location, or in a
// launched job this rank's own, where it also binds the machine to the
// control plane for the run and folds the job's statistics at the end.
func (m *Machine) ExecuteErr(fn func(loc *Location)) *MachineFault {
	m.beginRun()
	if m.proc != nil {
		if err := m.proc.attach(m); err != nil {
			m.recordFault(&LocationFault{Location: -1, Kind: FaultTransport, Err: err.Error(), remote: true})
			return m.collectFault()
		}
		defer m.proc.detach(m)
	}
	// Bring up the interconnect for this run.  It is built per Execute so
	// wire transports only hold sockets and goroutines while SPMD code runs.
	m.transport = m.transportFactory(m)
	for _, l := range m.driven {
		l.startServer()
	}
	if m.stallTimeout > 0 {
		m.startWatchdog(m.stallTimeout)
	}
	var wg sync.WaitGroup
	wg.Add(len(m.driven))
	for _, l := range m.driven {
		go func(l *Location) {
			defer wg.Done()
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				if _, unwound := r.(abortSignal); unwound {
					m.setUnwound(l.id)
					return
				}
				m.recordFault(&LocationFault{
					Location: l.id, Kind: FaultBodyPanic, Err: r, Stack: captureStack(),
				})
			}()
			fn(l)
			// Flush any aggregation buffers left by the SPMD code so
			// trailing asynchronous requests are delivered.
			l.flushBetweenBatches()
		}(l)
	}
	m.awaitUnwind(&wg)
	// Drain outstanding traffic before stopping the servers (returns early
	// when the run aborted: dropped requests keep pending above zero).  No
	// SPMD goroutine is left to flush what a handler buffered before the
	// machine was draining, so the run loop makes that one sweep itself.
	m.draining.Store(int32(len(m.driven)))
	for _, l := range m.driven {
		l.flushBetweenBatches()
	}
	m.waitQuiescent()
	// The watchdog covered the SPMD run and the quiescence wait; the drain
	// below is bounded on its own.
	m.stopWatchdog()
	// Every handler ran (pending hit zero), but the wire may still owe
	// acknowledgements or delayed duplicates; wait those out, then retain
	// the wire's identity and counters for post-run inspection.
	budget := fullDrainBudget
	if m.aborted() {
		budget = abortDrainBudget
	}
	if err := m.transport.Drain(budget); err != nil {
		m.recordFault(&LocationFault{Location: -1, Kind: FaultTransport, Err: err})
	}
	if m.proc != nil && !m.aborted() {
		m.procFoldStats()
	}
	m.lastWireName = m.transport.Name()
	m.lastWireStats = m.transport.WireStats()
	for _, l := range m.driven {
		l.stopServer()
	}
	m.awaitUnwind(&m.servers)
	if err := m.transport.Close(); err != nil {
		m.recordFault(&LocationFault{Location: -1, Kind: FaultTransport, Err: err})
	}
	m.transport = nil
	return m.collectFault()
}

// beginRun resets the per-run fault, abort, synchronisation and mailbox
// state so the machine can execute again — including after an aborted run,
// which leaves pending counters nonzero and mailboxes interrupted.
func (m *Machine) beginRun() {
	m.foldedStats = nil
	m.foldedWire = nil
	m.abortCh = make(chan struct{})
	m.abortOnce = new(sync.Once)
	m.faultMu.Lock()
	m.faults = nil
	m.status = make([]LocationStatus, len(m.locations))
	m.faultMu.Unlock()
	m.pending.Store(0)
	m.draining.Store(0)
	for i := range m.pendingBySrc {
		m.pendingBySrc[i].Store(0)
	}
	m.barMu.Lock()
	m.barCount = 0
	m.barMu.Unlock()
	for _, l := range m.locations {
		l.inbox.reopen()
		l.handlerStarted.Store(0)
		l.handlerDone.Store(0)
		l.injectionCount.Store(0)
		l.aggMu.Lock()
		for d := range l.aggBufs {
			l.aggBufs[d] = nil
		}
		l.aggMu.Unlock()
		// Completion callbacks of an aborted run will never fire; drop them
		// so a stale reply cannot complete a new run's token by accident.
		l.tokMu.Lock()
		l.tokens = nil
		l.tokMu.Unlock()
	}
}

// awaitUnwind waits for wg.  On a clean run it blocks indefinitely, exactly
// like wg.Wait.  Once the machine aborts it waits at most abortUnwindGrace
// for the goroutines to unwind cooperatively, then gives up (leaking the
// stuck goroutine — nothing can preempt non-cooperative user code) so the
// fault still reaches the caller.
func (m *Machine) awaitUnwind(wg *sync.WaitGroup) {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return
	case <-m.abortCh:
	}
	select {
	case <-done:
	case <-time.After(abortUnwindGrace):
		m.recordFault(&LocationFault{
			Location: -1, Kind: FaultStall,
			Err: fmt.Sprintf("goroutines failed to unwind within %v of the abort", abortUnwindGrace),
		})
	}
}

// ExecuteOn is a convenience wrapper that builds a machine with p locations
// and the default configuration, runs fn SPMD-style, and returns the machine
// (for stats inspection).
func ExecuteOn(p int, fn func(loc *Location)) *Machine {
	m := NewMachine(p, DefaultConfig())
	m.Execute(fn)
	return m
}

func (m *Machine) addPending(src int, n int64) {
	m.pending.Add(n)
	m.pendingBySrc[src].Add(n)
}

// unpendSent removes n requests issued by src from the pending accounting:
// a handler completed (n = 1), or the multi-process transport handed a batch
// to the wire — responsibility moves to the receiving process, which re-pends
// the requests at arrival, and the quiescence waves account for frames in
// flight between the two (see procQuiesce).  The decrement that takes the
// global or the source's count to zero is the quiescence event; it is
// broadcast only to a waiter waitZero has announced.
func (m *Machine) unpendSent(src int, n int64) {
	globalZero := m.pending.Add(-n) == 0
	srcZero := m.pendingBySrc[src].Add(-n) == 0
	if (globalZero || srcZero) && m.quiesceWaiters.Load() != 0 {
		m.quiesceMu.Lock()
		m.quiesceCv.Broadcast()
		m.quiesceMu.Unlock()
	}
}

// waitZero blocks until the pending counter c reads zero or the machine
// aborts (abort broadcasts quiesceCv too); the caller tells the two apart.
// The waiter is announced BEFORE the counter is read: each side does a
// sequentially consistent write then read (here waiters then counter, in
// unpendSent counter then waiters), so this read sees the zero or the
// decrement that produced it sees the waiter, and broadcasts once the sleeper
// has let go of the lock it read the counter under.
func (m *Machine) waitZero(c *atomic.Int64) {
	m.quiesceWaiters.Add(1)
	m.quiesceMu.Lock()
	for c.Load() != 0 && !m.aborted() {
		m.quiesceCv.Wait()
	}
	m.quiesceMu.Unlock()
	m.quiesceWaiters.Add(-1)
}

// waitQuiescent blocks until no RMIs are outstanding anywhere.  It must only
// be called while no SPMD goroutine can issue new top-level requests (i.e.
// between a fence's barriers or after all SPMD functions returned);
// handler-generated requests are accounted for because a handler only
// decrements pending after any requests it issued were already counted, so
// once pending reads zero it stays zero and one wait suffices.
// An aborted machine can never quiesce — dropped requests keep the pending
// counter above zero — so the wait returns as soon as the abort is observed
// and leaves the unwinding to the caller.
func (m *Machine) waitQuiescent() {
	if m.proc != nil {
		m.procQuiesce()
		return
	}
	m.waitZero(&m.pending)
}

// barrier blocks until all locations have reached it.  It is reusable.  A
// machine abort unwinds every waiter (the missing location will never
// arrive), so a fault on one location cannot strand the others here.
func (m *Machine) barrier() {
	if m.proc != nil {
		m.procBarrier()
		return
	}
	m.checkAbort()
	m.barMu.Lock()
	phase := m.barPhase
	m.barCount++
	if m.barCount == len(m.locations) {
		m.barCount = 0
		m.barPhase++
		m.barCv.Broadcast()
		m.barMu.Unlock()
		return
	}
	for phase == m.barPhase {
		// Checked under barMu before every wait: abort() broadcasts under
		// the same lock, so an abort that lands after checkAbort above is
		// either seen here or wakes the wait.
		if m.aborted() {
			m.barMu.Unlock()
			panic(abortSignal{})
		}
		m.barCv.Wait()
	}
	m.barMu.Unlock()
}

// Location is the RTS abstraction of a processing element: a unit with a
// private address space and execution capability.  All state reachable from
// a Location (registered p_object representatives, container base
// containers, ...) belongs to that location; other locations may only act on
// it through RMIs addressed to this location.
type Location struct {
	machine *Machine
	id      int
	n       int
	cfg     Config

	inbox *mailbox

	// Aggregation buffers, one per destination, guarded by aggMu.
	aggMu   sync.Mutex
	aggBufs []*[]*rmiRequest
	// batchMu is held by whoever runs a batch here (the server, or an issuer
	// in borrow) and by this location's own whole-buffer flushes
	// (flushBetweenBatches), so a flush never cuts in two what one batch's
	// handlers send to one destination: how many messages a fenced program
	// moves does not depend on when its locations reach the fence.
	batchMu sync.Mutex

	// Registered p_object representatives, held as an immutable snapshot
	// slice indexed by handle.  Registration is rare and collective
	// (SPMD-ordered, so the running counter yields identical handles on
	// every location) and copies the table under regMu; lookup happens on
	// every RMI and is a single atomic load plus a slice index — no lock.
	regMu      sync.Mutex
	objects    atomic.Pointer[[]any]
	nextHandle Handle

	// rng is a private, deterministic random source for workloads.
	rng *rand.Rand

	// stats is this location's shard of the machine statistics.
	stats statShard

	// localStats counts per-location activity.
	localRMIs  atomic.Int64
	remoteRMIs atomic.Int64

	// handlerStarted/handlerDone bracket handler execution so the progress
	// watchdog can attribute a stall to the location whose handler never
	// finished; injectionCount drives the deterministic fault injection.
	handlerStarted atomic.Int64
	handlerDone    atomic.Int64
	injectionCount atomic.Int64

	// parked are the waiters this location's blocking callers are parked on
	// (see Waiter).
	parkMu sync.Mutex
	parked []*Waiter

	// Completion tokens for value-returning registered operations on
	// self-decoding transports (see ops.go): the origin parks a callback
	// here and the matching KindReply request routes its value back.
	tokMu    sync.Mutex
	tokens   map[uint64]func(v any) bool
	tokenSeq uint64
}

func newLocation(m *Machine, id, n int, cfg Config) *Location {
	l := &Location{
		machine: m,
		id:      id,
		n:       n,
		cfg:     cfg,
		inbox:   newMailbox(),
		aggBufs: make([]*[]*rmiRequest, n),
		rng:     rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(id))),
	}
	empty := make([]any, 0)
	l.objects.Store(&empty)
	return l
}

// ID returns this location's identifier in [0, NumLocations()).
func (l *Location) ID() int { return l.id }

// NumLocations returns the number of locations in the machine.
func (l *Location) NumLocations() int { return l.n }

// Machine returns the machine this location belongs to.
func (l *Location) Machine() *Machine { return l.machine }

// Rand returns the location-private deterministic random source.
func (l *Location) Rand() *rand.Rand { return l.rng }

// LocalRMIs reports how many RMIs this location executed locally
// (shortcut path, no message) since the machine was created.
func (l *Location) LocalRMIs() int64 { return l.localRMIs.Load() }

// RemoteRMIs reports how many RMIs this location sent to other locations.
func (l *Location) RemoteRMIs() int64 { return l.remoteRMIs.Load() }

// RegisterObject registers a p_object representative with the RTS and
// returns its handle.  Registration must be performed collectively in the
// same order on every location (the usual SPMD constructor discipline), so
// that corresponding representatives share a handle.
func (l *Location) RegisterObject(obj any) Handle {
	l.regMu.Lock()
	h := l.nextHandle
	l.nextHandle++
	old := *l.objects.Load()
	next := make([]any, int(h)+1)
	copy(next, old)
	next[h] = obj
	l.objects.Store(&next)
	l.regMu.Unlock()
	return h
}

// UnregisterObject removes a previously registered representative.
func (l *Location) UnregisterObject(h Handle) {
	l.regMu.Lock()
	old := *l.objects.Load()
	if int(h) < len(old) && old[h] != nil {
		next := append([]any(nil), old...)
		next[h] = nil
		l.objects.Store(&next)
	}
	l.regMu.Unlock()
}

// Object returns the representative registered under h on this location.
// Framework code running inside an RMI handler uses it to reach sibling
// p_objects (e.g. the outer container of an embedded base) at the
// destination.  It panics if no object is registered under h.
func (l *Location) Object(h Handle) any { return l.object(h) }

// object looks up a registered representative in the current table
// snapshot.  This is the per-RMI fast path: one atomic load, no lock.
func (l *Location) object(h Handle) any {
	tbl := *l.objects.Load()
	if h >= 0 && int(h) < len(tbl) {
		if o := tbl[h]; o != nil {
			return o
		}
	}
	panic(fmt.Sprintf("runtime: location %d has no object registered for handle %d", l.id, h))
}

// startServer launches the goroutine that executes incoming RMIs for this
// location.  Handlers are executed one at a time, which provides the
// paper's per-location serialisation of incoming requests and the FIFO
// ordering guarantee for a given (source, destination) pair.  The server
// drains the mailbox in whole batches (one lock acquisition per batch) and
// serves each under batchMu.
func (l *Location) startServer() {
	m := l.machine
	m.servers.Add(1)
	go func() {
		defer m.servers.Done()
		var spare []*rmiRequest
		for {
			batch := l.inbox.popBatch(spare)
			if batch == nil {
				return
			}
			l.batchMu.Lock()
			l.serve(batch)
			l.batchMu.Unlock()
			spare = batch
		}
	}()
}

func (l *Location) stopServer() { l.inbox.close() }

// serve runs a batch here under batchMu — the server's from the mailbox, or
// borrow's batch of one: execute each request, take it off the pending count,
// recycle it.  While the machine drains, the last one first flushes this
// location's aggregation buffers, so the machine cannot look quiescent (and the
// fence end, and draining drop) with a handler's send still buffered.  Outside
// a drain that is one atomic load per batch.
func (l *Location) serve(batch []*rmiRequest) {
	m := l.machine
	for i, req := range batch {
		l.execute(req)
		if i == len(batch)-1 && int(m.draining.Load()) == len(m.driven) {
			l.flushAll()
		}
		m.unpendSent(req.src, 1)
		putRequest(req)
		batch[i] = nil
	}
}

// borrow serves req on the issuer's goroutine, which parks until req has run
// anyway, if this location's server is idle, and reports whether it did: with
// batchMu held and the server asleep with nothing queued, everything sent here
// before req has run and nothing else can start (DESIGN.md §1).
func (l *Location) borrow(req *rmiRequest) bool {
	if !l.inbox.idle() || !l.batchMu.TryLock() {
		return false
	}
	idle := l.inbox.idle() // the server may have taken a batch before the lock
	if idle {
		l.serve([]*rmiRequest{req})
	}
	l.batchMu.Unlock()
	return idle
}

// execute runs one RMI request against the local representative (serve takes
// it off the pending count afterwards).  A panic in the handler (or
// in the framework lookup around it) is contained: it is captured as a
// FaultHandlerPanic with the handler's stack and aborts the machine, instead
// of killing the process from a server goroutine and stranding every other
// location.  The abort sentinel itself (a handler unblocked mid-abort) is
// swallowed — the fault that caused it is already on file.
func (l *Location) execute(req *rmiRequest) {
	l.handlerStarted.Add(1)
	defer l.handlerDone.Add(1)
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, unwound := r.(abortSignal); unwound {
			return
		}
		l.machine.recordFault(&LocationFault{
			Location: l.id, Kind: FaultHandlerPanic, Err: r, Stack: captureStack(),
		})
	}()
	if req.kind == transport.KindReply {
		// Reply routing, not a handler: no delay, no injection, and it does
		// not count as a handled RMI (the shared-memory completion path it
		// mirrors never reaches a server either).
		l.completeToken(req.token, req.arg)
		return
	}
	if req.delay > 0 {
		time.Sleep(req.delay)
	}
	l.maybeInjectFault()
	l.stats.rmisHandled.Add(1)
	req.op.exec(l.object(req.handle), l, req.arg)
}

// reqPool recycles rmiRequest descriptors: the element-access hot path
// allocates one per remote request, and the server returns it after the
// handler ran, so steady-state traffic runs without per-request garbage.
var reqPool = sync.Pool{New: func() any { return new(rmiRequest) }}

// getRequest returns a zeroed request descriptor from the pool.
func getRequest() *rmiRequest { return reqPool.Get().(*rmiRequest) }

// putRequest clears and recycles a request descriptor.  Callers must not
// retain any reference to it afterwards.
func putRequest(r *rmiRequest) {
	*r = rmiRequest{}
	reqPool.Put(r)
}
