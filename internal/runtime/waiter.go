package runtime

import "slices"

// Waiter is the completion primitive of a blocking call: ONE goroutine blocks
// (Location.Wait) until ONE handler is done (Wake).  It is embedded in the
// pooled record that carries the call's result, next to the cell the handler
// writes in place (DESIGN.md §1, "How a blocking call waits").  The contract:
//
//   - one wait, one wake: exactly one Wake answers a use, before or after the
//     caller parked, and what the handler wrote before it happens-before Wait's
//     return; once Wait has returned the record may be pooled;
//   - if the machine aborts, the abort signals every parked waiter itself
//     (unpark) and Wait unwinds the caller with the abort sentinel;
//   - an aborted waiter is never pooled (Wait did not return, so the caller's
//     Put never runs): a handler still dying may yet write the cell and wake it,
//     and a pooled record would hand that stale wake-up to its next user.
type Waiter struct {
	// ch has room for the one signal a use gets — true from Wake, false from
	// the abort — so neither sender blocks and Wake may precede Wait.
	ch chan bool
}

// MakeWaiter returns an idle waiter, to be stored in a record once and used
// any number of times.
func MakeWaiter() Waiter { return Waiter{ch: make(chan bool, 1)} }

// Wake completes the wait.  Call it exactly once per use, after the last
// write to the record the waiter guards.
func (w *Waiter) Wake() {
	select {
	case w.ch <- true:
	default: // the abort's signal is in the way: the caller is unwinding
	}
}

// Wait blocks until w is woken, or unwinds the calling goroutine if the
// machine aborts first (the record must then not be reused).  A wake-up that
// came first (the handler may have run on this goroutine, see SyncRMI) is
// taken without listing w as parked, and unwinds too if the machine aborted.
func (l *Location) Wait(w *Waiter) {
	select {
	case <-w.ch: // Wake's: only a listed waiter is sent the abort's signal
		l.machine.checkAbort()
		return
	default:
	}
	// The abort closes its channel, then goes over the lists: a waiter that
	// saw the channel open while it held parkMu is listed before that.
	l.parkMu.Lock()
	if l.machine.aborted() {
		l.parkMu.Unlock()
		panic(abortSignal{})
	}
	l.parked = append(l.parked, w)
	l.parkMu.Unlock()

	woken := <-w.ch

	l.parkMu.Lock()
	i := slices.Index(l.parked, w)
	l.parked = slices.Delete(l.parked, i, i+1)
	// Possibly still listed when the abort went over the list: its signal may
	// sit in ch behind the wake-up just taken.
	aborted := l.machine.aborted()
	l.parkMu.Unlock()
	if !woken || aborted {
		panic(abortSignal{})
	}
}

// unpark is the abort's broadcast over this location's parked waiters.
func (l *Location) unpark() {
	l.parkMu.Lock()
	for _, w := range l.parked {
		select {
		case w.ch <- false:
		default: // woken already; its caller sees the abort on its way out
		}
	}
	l.parkMu.Unlock()
}
