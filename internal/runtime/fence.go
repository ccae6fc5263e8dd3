package runtime

// Fence is the collective rmi_fence of the paper: every location must call
// it, and when it returns no RMI issued before the fence (including RMIs
// issued transitively by handlers) is still pending anywhere in the machine.
// It is the synchronisation point that turns the relaxed per-element
// completion guarantees of asynchronous container methods into a globally
// consistent state.
func (l *Location) Fence() {
	m := l.machine
	l.stats.fences.Add(1)
	// Deliver everything buffered locally, so the traffic moves while the
	// stragglers arrive.
	l.flushBetweenBatches()
	m.draining.Add(1)
	// Once every location is inside, no new top-level request can be issued:
	// what is pending now, plus what its handlers send, is all there is.  The
	// servers flush the latter from here on (see startServer); what a handler
	// buffered before its server could know is flushed now.
	m.barrier()
	l.flushBetweenBatches()
	// One location waits for the quiescence event — pending never rises again
	// once it has read zero, so one wait suffices — and the others for it, on
	// the closing barrier: nobody leaves, and issues again, before then.
	// Which one waits is immaterial to correctness.  It is the last one
	// because the waiter reaches the closing barrier last and, on a single
	// processor, is the first to run on: with location 0 waiting, the step
	// times the benchmark takes at location 0 start before any other location
	// has resumed (coarse-kernels op_p50_us read 23 % higher).
	if l == m.driven[len(m.driven)-1] {
		m.waitQuiescent()
		m.draining.Store(0)
	}
	m.barrier()
}

// OneSidedFence waits until every RMI issued *by this location* before the
// call has been handled (the paper's os_fence).  Unlike Fence it is not
// collective and gives no guarantee about requests issued by other
// locations: requests that handlers spawned elsewhere while servicing this
// location's traffic are attributed to the forwarding location.
func (l *Location) OneSidedFence() {
	l.flushAll()
	l.machine.waitZero(&l.machine.pendingBySrc[l.id])
	l.machine.checkAbort()
}
