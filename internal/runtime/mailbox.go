package runtime

import "sync"

// mailbox is an unbounded, FIFO, multiple-producer single-consumer queue of
// RMI requests.  Unbounded capacity is required so that a sender never
// blocks on a receiver that is itself blocked sending (which would deadlock
// chains of forwarded requests).
//
// The queue is a two-stack design: producers append to the in slice under
// the lock, and the single consumer swaps the whole slice out with popBatch,
// so draining n requests costs one lock acquisition instead of n (the old
// head-slicing pop paid a lock round-trip and an O(n) copy per request).
// The consumer hands its drained slice back on the next call, so steady
// state runs without allocation.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	in     []*rmiRequest
	closed bool
	// aborted is the machine-abort interrupt: unlike closed (which still
	// delivers queued requests), an aborted mailbox drops its queue and
	// wakes the consumer immediately — the machine is unwinding and the
	// requests' senders have already been unblocked.
	aborted bool
	// waiting is set while the consumer sleeps in popBatch: it has finished
	// every batch it took, so with in empty every request pushed so far has run.
	waiting bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// push enqueues a request.  It is safe to call from any goroutine.
func (m *mailbox) push(r *rmiRequest) {
	m.mu.Lock()
	if m.closed || m.aborted {
		m.mu.Unlock()
		return
	}
	m.in = append(m.in, r)
	m.cond.Signal()
	m.mu.Unlock()
}

// pushAll enqueues a batch of requests atomically, preserving their order.
// The caller keeps ownership of rs; its elements are copied out.
func (m *mailbox) pushAll(rs []*rmiRequest) {
	if len(rs) == 0 {
		return
	}
	m.mu.Lock()
	if m.closed || m.aborted {
		m.mu.Unlock()
		return
	}
	m.in = append(m.in, rs...)
	m.cond.Signal()
	m.mu.Unlock()
}

// popBatch blocks until at least one request is queued (or the mailbox is
// closed) and then drains the entire queue in one lock acquisition,
// returning the requests in FIFO order.  spare, if non-nil, becomes the new
// producer-side buffer, so the consumer can recycle the slice it finished
// processing.  It returns nil when the mailbox is closed and drained.
func (m *mailbox) popBatch(spare []*rmiRequest) []*rmiRequest {
	m.mu.Lock()
	for len(m.in) == 0 && !m.closed && !m.aborted {
		m.waiting = true
		m.cond.Wait()
		m.waiting = false
	}
	if m.aborted || len(m.in) == 0 {
		m.in = nil
		m.mu.Unlock()
		return nil
	}
	batch := m.in
	if spare != nil {
		m.in = spare[:0]
	} else {
		m.in = nil
	}
	m.mu.Unlock()
	return batch
}

// idle reports whether the consumer sleeps in popBatch with nothing queued.  An
// empty queue alone does not say it: the consumer may hold a batch not yet run.
func (m *mailbox) idle() bool {
	m.mu.Lock()
	idle := m.waiting && len(m.in) == 0 && !m.aborted
	m.mu.Unlock()
	return idle
}

// close wakes the consumer; pending requests are still delivered before
// popBatch starts returning nil.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// interrupt is the machine-abort path: queued requests are dropped and the
// consumer wakes immediately, so a server goroutine blocked here cannot
// outlive an aborted run.
func (m *mailbox) interrupt() {
	m.mu.Lock()
	m.aborted = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// reopen resets the mailbox for a fresh Execute run (machines are reusable,
// including after an aborted run).
func (m *mailbox) reopen() {
	m.mu.Lock()
	m.closed = false
	m.aborted = false
	m.in = nil
	m.mu.Unlock()
}

// length reports the number of queued, not yet drained requests (used by
// tests).  Requests already handed to the consumer are not counted.
func (m *mailbox) length() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.in)
}
