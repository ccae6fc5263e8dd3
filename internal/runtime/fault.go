package runtime

import (
	"fmt"
	"math/rand"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"time"
)

// This file is the fault-containment layer of the RTS.  The paper's SPMD
// machine model assumes every location cooperates forever; this layer makes
// the simulated machine survivable instead: a panic in an RMI handler or an
// SPMD body, a stalled location, or a wire failure is captured as a
// LocationFault, the machine performs a cooperative abort that unblocks
// every location parked in a barrier, fence, future or mailbox wait, and
// Machine.ExecuteErr returns a MachineFault naming the first cause plus the
// per-location outcome — instead of deadlocking the run.

// FaultKind classifies what brought a location (or the machine) down.
type FaultKind uint8

const (
	// FaultHandlerPanic is a panic recovered inside an RMI handler on the
	// location's server goroutine.
	FaultHandlerPanic FaultKind = iota
	// FaultBodyPanic is a panic recovered from the location's SPMD body.
	FaultBodyPanic
	// FaultStall is raised by the progress watchdog: requests were pending
	// (or a goroutine slept waiting for none to be) but no machine counter
	// moved for the configured stall deadline.
	FaultStall
	// FaultTransport is a wire-level failure (drain timeout, lost rendezvous
	// batches, dial failure after retries, peer reset mid-run).
	FaultTransport
)

// String names the fault kind for diagnostics.
func (k FaultKind) String() string {
	switch k {
	case FaultHandlerPanic:
		return "handler panic"
	case FaultBodyPanic:
		return "SPMD body panic"
	case FaultStall:
		return "stall"
	case FaultTransport:
		return "transport fault"
	default:
		return fmt.Sprintf("fault kind %d", uint8(k))
	}
}

// LocationFault is one captured failure.  Location is -1 when the fault is
// machine-wide (a transport failure or an unattributable stall).
type LocationFault struct {
	Location int
	Kind     FaultKind
	Err      any    // recovered panic value or error
	Stack    []byte // goroutine stack captured at the fault site, if any

	// remote marks a fault applied from another process's broadcast in
	// multi-process mode, so the machine does not forward it back to the hub
	// (which already knows).
	remote bool
}

// Error formats the fault as one line; the captured stack is kept apart so
// the summary stays readable.
func (f *LocationFault) Error() string {
	where := fmt.Sprintf("location %d", f.Location)
	if f.Location < 0 {
		where = "machine"
	}
	return fmt.Sprintf("%s: %s: %v", where, f.Kind, f.Err)
}

// LocationStatus is the per-location outcome of an aborted run.
type LocationStatus uint8

const (
	// StatusOK: the location's SPMD body returned normally.
	StatusOK LocationStatus = iota
	// StatusFaulted: the location raised a fault (panic or stall).
	StatusFaulted
	// StatusUnwound: the location was parked in a blocking primitive and
	// was unwound by the machine abort.
	StatusUnwound
)

// String names the status for diagnostics.
func (s LocationStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusFaulted:
		return "faulted"
	case StatusUnwound:
		return "unwound"
	default:
		return fmt.Sprintf("status %d", uint8(s))
	}
}

// MachineFault is what ExecuteErr returns when a run aborted: the first
// fault (the cause — later faults are usually knock-on effects of the
// abort), every fault in arrival order, and the per-location outcome.
// It implements error; Machine.Execute panics with it, preserving the
// pre-fault-containment crash behaviour for callers that never look.
type MachineFault struct {
	Cause  *LocationFault
	Faults []*LocationFault
	Status []LocationStatus
}

// Error summarises the abort: the cause first (naming the faulting
// location), then the per-location outcome.
func (f *MachineFault) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runtime: machine aborted: %s", f.Cause.Error())
	if len(f.Faults) > 1 {
		fmt.Fprintf(&b, " (+%d secondary faults)", len(f.Faults)-1)
	}
	var unwound, ok int
	for _, s := range f.Status {
		switch s {
		case StatusUnwound:
			unwound++
		case StatusOK:
			ok++
		}
	}
	fmt.Fprintf(&b, "; locations: %d ok, %d unwound", ok, unwound)
	return b.String()
}

// Unwrap exposes the cause for errors.Is/As chains.
func (f *MachineFault) Unwrap() error { return f.Cause }

// abortSignal is the sentinel panic value used to unwind SPMD goroutines
// parked in blocking primitives (Barrier, Fence, Future.Get, SyncRMI,
// OneSidedFence) once the machine aborts.  The per-location recover
// recognises it and records the location as unwound, not faulted.
type abortSignal struct{}

func (abortSignal) String() string { return "runtime: machine aborted" }

// captureStack snapshots the calling goroutine's stack for a LocationFault.
func captureStack() []byte {
	buf := make([]byte, 64<<10)
	return buf[:goruntime.Stack(buf, false)]
}

// FaultInjection deterministically injects one fault into a run, so the
// whole containment path — recovery, abort, drain, MachineFault — can be
// exercised on any transport and seed.  The injection triggers on the
// target location's server goroutine when it is about to handle its
// (AfterHandled+1)-th incoming RMI; workloads that never route that much
// traffic to the target run fault-free.
type FaultInjection struct {
	// Location is the target location.
	Location int
	// Kind selects the fault: FaultHandlerPanic panics the handler,
	// FaultStall parks the server goroutine until the machine aborts
	// (which only the progress watchdog can trigger — set
	// Config.StallTimeout).
	Kind FaultKind
	// AfterHandled is how many incoming RMIs the target serves before the
	// injection fires.
	AfterHandled int64
}

// SeededFaultInjection derives an injection plan from a seed, the way the
// chaos wire derives its fault schedule: the same (seed, locations, kind)
// always targets the same location after the same number of handled
// requests.
func SeededFaultInjection(seed int64, locations int, kind FaultKind) *FaultInjection {
	rng := rand.New(rand.NewSource(seed))
	return &FaultInjection{
		Location:     rng.Intn(locations),
		Kind:         kind,
		AfterHandled: rng.Int63n(32),
	}
}

// faultInjectionFromEnv resolves the PCF_CHAOS_PANIC / PCF_CHAOS_STALL
// environment variables (each holds an injection seed) for machines whose
// Config carries no explicit plan.  Like PCF_CHAOS_SEED they are meant for
// the dedicated fault suite and pcfbench — with either set, EVERY Execute
// in the process is fault-injected.  Unparsable values panic, matching the
// PCF_TRANSPORT fail-fast posture.
func faultInjectionFromEnv(locations int) *FaultInjection {
	parse := func(env string, kind FaultKind) *FaultInjection {
		s := os.Getenv(env)
		if s == "" {
			return nil
		}
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			panic(fmt.Sprintf("runtime: bad %s %q: %v", env, s, err))
		}
		return SeededFaultInjection(seed, locations, kind)
	}
	if inj := parse("PCF_CHAOS_PANIC", FaultHandlerPanic); inj != nil {
		return inj
	}
	return parse("PCF_CHAOS_STALL", FaultStall)
}

// stallTimeoutFromEnv resolves PCF_STALL_TIMEOUT (a Go duration string) for
// machines whose Config leaves StallTimeout zero.
func stallTimeoutFromEnv() time.Duration {
	s := os.Getenv("PCF_STALL_TIMEOUT")
	if s == "" {
		return 0
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		panic(fmt.Sprintf("runtime: bad PCF_STALL_TIMEOUT %q: %v", s, err))
	}
	return d
}

// defaultInjectedStallTimeout guards the one configuration that would
// otherwise deadlock by construction: a seeded stall injection with no
// watchdog to convert it into a fault.
const defaultInjectedStallTimeout = 5 * time.Second

// recordFault files a fault and triggers the machine abort.  The first
// fault becomes the MachineFault's cause; later ones are retained as
// secondary.  Safe to call from any goroutine.
func (m *Machine) recordFault(f *LocationFault) {
	m.faultMu.Lock()
	m.faults = append(m.faults, f)
	if f.Location >= 0 && f.Location < len(m.status) {
		m.status[f.Location] = StatusFaulted
	}
	hook := m.onFault
	m.faultMu.Unlock()
	m.abort()
	// In multi-process mode locally raised faults are forwarded to the
	// launcher hub (after the local abort is under way, so a slow control
	// plane cannot delay the unwind).  Remotely applied faults are not
	// re-forwarded: the hub broadcast them to us in the first place.
	if hook != nil && !f.remote {
		hook(f)
	}
}

// setUnwound marks a location as unwound by the abort, unless it already
// faulted in its own right.
func (m *Machine) setUnwound(loc int) {
	m.faultMu.Lock()
	if m.status[loc] == StatusOK {
		m.status[loc] = StatusUnwound
	}
	m.faultMu.Unlock()
}

// collectFault folds the run's faults into the MachineFault returned by
// ExecuteErr, or nil for a clean run.
func (m *Machine) collectFault() *MachineFault {
	m.faultMu.Lock()
	defer m.faultMu.Unlock()
	if len(m.faults) == 0 {
		return nil
	}
	return &MachineFault{
		Cause:  m.faults[0],
		Faults: append([]*LocationFault(nil), m.faults...),
		Status: append([]LocationStatus(nil), m.status...),
	}
}

// abort triggers the machine-wide cooperative abort exactly once per run:
// the abort channel closes (unblocking every select on it — futures, injected
// stalls, the watchdog), the barrier and quiescence condition variables
// broadcast (their wait loops re-check the abort flag and unwind), every
// location's parked blocking callers are woken to unwind, and every mailbox
// is interrupted so the server goroutines stop pulling work.
func (m *Machine) abort() {
	m.abortOnce.Do(func() {
		close(m.abortCh)
		m.barMu.Lock()
		m.barCv.Broadcast()
		m.barMu.Unlock()
		m.quiesceMu.Lock()
		m.quiesceCv.Broadcast()
		m.quiesceMu.Unlock()
		for _, l := range m.locations {
			l.unpark()
			l.inbox.interrupt()
		}
	})
}

// aborted reports whether the current run has aborted.
func (m *Machine) aborted() bool {
	select {
	case <-m.abortCh:
		return true
	default:
		return false
	}
}

// checkAbort unwinds the calling SPMD goroutine when the machine has
// aborted.  Blocking primitives call it from their wait loops.
func (m *Machine) checkAbort() {
	if m.aborted() {
		panic(abortSignal{})
	}
}

// progressSig is one watchdog sample of the machine-wide counters that a
// live run keeps moving.  Two equal consecutive samples with work pending
// mean nothing happened in between.
type progressSig struct {
	pending   int64
	sleepers  int32 // goroutines waiting for a quiescence event
	handled   int64
	messages  int64
	started   int64
	finished  int64
	barPhase  int
	barCount  int
	mailboxes int
}

// progressSignature folds the machine state into one comparable sample.
func (m *Machine) progressSignature() progressSig {
	var sig progressSig
	sig.pending = m.pending.Load()
	sig.sleepers = m.quiesceWaiters.Load()
	for _, l := range m.locations {
		sig.handled += l.stats.rmisHandled.Load()
		sig.messages += l.stats.messagesSent.Load()
		sig.started += l.handlerStarted.Load()
		sig.finished += l.handlerDone.Load()
		sig.mailboxes += l.inbox.length()
	}
	m.barMu.Lock()
	sig.barPhase, sig.barCount = m.barPhase, m.barCount
	m.barMu.Unlock()
	return sig
}

// suspectLocation guesses which location a stall should be attributed to:
// first a location with a handler that started but never finished (a stuck
// or stalled handler), then one with undrained mailbox traffic, else -1
// (machine-wide).
func (m *Machine) suspectLocation() int {
	for _, l := range m.locations {
		if l.handlerStarted.Load() > l.handlerDone.Load() {
			return l.id
		}
	}
	for _, l := range m.locations {
		if l.inbox.length() > 0 {
			return l.id
		}
	}
	return -1
}

// stallDiagnostic dumps the counters a stalled machine froze at, so the
// "no progress" fault is diagnosable from its message alone.
func (m *Machine) stallDiagnostic(deadline time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "no progress for %v with %d requests pending and %d goroutines waiting for quiescence;", deadline, m.pending.Load(), m.quiesceWaiters.Load())
	for _, l := range m.locations {
		fmt.Fprintf(&b, " loc%d{issued-pending=%d mailbox=%d handling=%d handled=%d}",
			l.id,
			m.pendingBySrc[l.id].Load(),
			l.inbox.length(),
			l.handlerStarted.Load()-l.handlerDone.Load(),
			l.stats.rmisHandled.Load())
	}
	return b.String()
}

// startWatchdog launches the progress watchdog for the run: it samples the
// machine counters and converts a frozen sample with pending work into a
// FaultStall once the stall deadline passes.  A machine with zero pending
// requests is not flagged — locations may legitimately compute locally for
// any amount of time — unless somebody sleeps waiting for exactly that: a
// quiescence event that was never delivered.
func (m *Machine) startWatchdog(deadline time.Duration) {
	stop := make(chan struct{})
	done := make(chan struct{})
	m.watchdogStop, m.watchdogDone = stop, done
	abortCh := m.abortCh
	go func() {
		defer close(done)
		interval := deadline / 8
		if interval < 200*time.Microsecond {
			interval = 200 * time.Microsecond
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		last := m.progressSignature()
		lastChange := time.Now()
		for {
			select {
			case <-stop:
				return
			case <-abortCh:
				return
			case <-ticker.C:
			}
			sig := m.progressSignature()
			if sig != last || (sig.pending == 0 && sig.sleepers == 0) {
				last, lastChange = sig, time.Now()
				continue
			}
			if time.Since(lastChange) >= deadline {
				m.recordFault(&LocationFault{
					Location: m.suspectLocation(),
					Kind:     FaultStall,
					Err:      m.stallDiagnostic(deadline),
				})
				return
			}
		}
	}()
}

// stopWatchdog ends the watchdog (if one is running) and waits it out.
func (m *Machine) stopWatchdog() {
	if m.watchdogStop == nil {
		return
	}
	close(m.watchdogStop)
	<-m.watchdogDone
	m.watchdogStop, m.watchdogDone = nil, nil
}

// maybeInjectFault fires the configured fault injection when this location
// is about to handle the request the plan targets.
func (l *Location) maybeInjectFault() {
	inj := l.cfg.FaultInjection
	if inj == nil || inj.Location != l.id {
		return
	}
	if l.injectionCount.Add(1) != inj.AfterHandled+1 {
		return
	}
	switch inj.Kind {
	case FaultStall:
		// Park the server goroutine mid-handler.  Only the watchdog can see
		// this — pending work with frozen counters — and its abort is what
		// releases the stall, so the goroutine never leaks.
		<-l.machine.abortCh
	default:
		panic(fmt.Sprintf("runtime: injected %v at location %d after %d handled requests",
			inj.Kind, l.id, inj.AfterHandled))
	}
}
