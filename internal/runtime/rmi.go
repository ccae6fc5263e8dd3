package runtime

import (
	"sync"
	"time"

	"repro/internal/transport"
)

// handler is the one shape every request's code takes at the destination: a
// static function applied to the addressed object and an explicit argument.
// A handler whose caller waits for a result stores it where the argument says
// and wakes the caller itself.
type handler func(obj any, loc *Location, arg any)

// A closure request is the argument of one of two fixed, unregistered
// operations (id 0, no codecs): the handler calls the closure it is handed.
// A func value and a *syncCall are pointer-shaped, so boxing either as the
// argument allocates nothing.
var (
	closureOp = &opEntry{name: "closure", exec: func(obj any, loc *Location, arg any) {
		arg.(func(any, *Location))(obj, loc)
	}}
	syncClosureOp = &opEntry{name: "closure", exec: func(obj any, loc *Location, arg any) {
		c := arg.(*syncCall)
		c.out = c.fn(obj, loc)
		c.w.Wake()
	}, parks: func(any) bool { return true }}
)

// syncCall is the argument of a closure SyncRMI: the closure, the cell its
// result is stored in, and the waiter the caller is parked on.
type syncCall struct {
	w   Waiter
	fn  func(obj any, loc *Location) any
	out any
}

var syncCalls = sync.Pool{New: func() any { return &syncCall{w: MakeWaiter()} }}

// rmiRequest is one remote method invocation in flight: an operation (its
// handler, and what the wire adapter needs to know to ship it) plus the
// argument.
type rmiRequest struct {
	src    int
	handle Handle
	kind   uint8 // transport.Kind* — the RMI flavour, for the wire descriptor
	op     *opEntry
	arg    any
	delay  time.Duration
	bytes  int
	token  uint64 // KindReply: addresses the origin's completion callback
	// parks: the issuer waits until the handler has run and no latency is
	// simulated, so in-process delivery may run it on the issuing goroutine.
	parks bool
}

// requestOverheadBytes is the simulated size of a request descriptor (the
// header every remote invocation would marshal even with an empty argument
// list).  Synchronous and urgent requests account it so that sync-heavy
// experiments do not report zero traffic.
const requestOverheadBytes = 8

// issue is the single path every RMI flavour takes: count the request, run it
// in place when dest is this location (the local fast path the paper's
// containers exploit), otherwise account the simulated bytes, build the one
// outgoing request and hand it to the delivery its flavour calls for.  The
// exported entry points below only bump their own flavour counter and name
// the operation.
func (l *Location) issue(dest int, h Handle, kind uint8, bytes int, op *opEntry, arg any) {
	l.stats.rmisSent.Add(1)
	if dest == l.id {
		l.localRMIs.Add(1)
		op.exec(l.object(h), l, arg)
		return
	}
	// Remote requests account the fixed descriptor overhead on top of the
	// payload; local invocations move no simulated bytes at all.
	l.stats.bytesSimulated.Add(int64(bytes) + requestOverheadBytes)
	l.remoteRMIs.Add(1)
	req := getRequest()
	*req = rmiRequest{src: l.id, handle: h, kind: kind, op: op, arg: arg, bytes: bytes, delay: l.delayTo(dest)}
	if kind == transport.KindAsync {
		l.enqueue(dest, req)
	} else {
		req.parks = op.parks != nil && l.cfg.RemoteDelay == nil && op.parks(arg)
		l.deliverNow(dest, req)
	}
}

// deliverNow ships req as a message of its own.  The destination's
// aggregation buffer is flushed first, so a request that bypasses the buffer
// (urgent, bulk, synchronous) cannot overtake earlier asynchronous requests
// on the same (source, destination) pair.
func (l *Location) deliverNow(dest int, req *rmiRequest) {
	l.flushDest(dest)
	l.machine.addPending(l.id, 1)
	l.stats.messagesSent.Add(1)
	l.machine.transport.DeliverOne(l.id, dest, req)
}

// AsyncRMI executes fn against the representative of handle h on location
// dest without waiting for completion.  Requests from this location to a
// given destination are delivered and executed in invocation order.
func (l *Location) AsyncRMI(dest int, h Handle, fn func(obj any, loc *Location)) {
	l.AsyncRMISized(dest, h, 0, fn)
}

// AsyncRMISized is AsyncRMI with an explicit simulated payload size in bytes.
func (l *Location) AsyncRMISized(dest int, h Handle, bytes int, fn func(obj any, loc *Location)) {
	l.stats.asyncRMIs.Add(1)
	l.issue(dest, h, transport.KindAsync, bytes, closureOp, fn)
}

// AsyncRMIOpSized is AsyncRMISized for a REGISTERED operation: op names the
// registry entry whose static handler runs at the destination on arg.  Nothing
// is captured, so the caller pays no closure allocation per request, and arg
// is typically a pooled record the handler recycles.  arg crosses in-process
// transports by reference: like every RMI argument it must not be mutated
// until the handler has run.  Counter behaviour is identical to the closure
// form — and identical on every transport.
func (l *Location) AsyncRMIOpSized(dest int, h Handle, bytes int, op OpID, arg any) {
	l.stats.asyncRMIs.Add(1)
	l.issue(dest, h, transport.KindAsync, bytes, opByID(op), arg)
}

// AsyncRMIUrgent behaves like AsyncRMI but bypasses the aggregation buffer:
// earlier buffered requests to the destination are flushed first (preserving
// per-destination FIFO order) and this request is delivered immediately.
// The PCF uses it for requests whose results a caller may be blocked on
// (forwarded split-phase and synchronous invocations), where holding the
// request back for batching would stall the caller.
func (l *Location) AsyncRMIUrgent(dest int, h Handle, fn func(obj any, loc *Location)) {
	l.stats.asyncRMIs.Add(1)
	l.issue(dest, h, transport.KindUrgent, 0, closureOp, fn)
}

// AsyncRMIUrgentOp is AsyncRMIUrgent for a registered operation (see
// AsyncRMIOpSized).  The PCF's forwarding hops of registered reads use it.
func (l *Location) AsyncRMIUrgentOp(dest int, h Handle, op OpID, arg any) {
	l.stats.asyncRMIs.Add(1)
	l.issue(dest, h, transport.KindUrgent, 0, opByID(op), arg)
}

// AsyncRMIBulk ships ops logical element operations to dest as ONE request
// and one physical message: fn runs once at the destination and is expected
// to apply the whole batch.  bytes is the simulated marshalled size of the
// batched arguments.
//
// This is the semantic-batching primitive behind the containers' bulk
// element methods (SetBulk/GetBulk/...): where per-element traffic pays one
// request descriptor per element and relies on the aggregation buffer to
// amortise messages, a bulk request pays one descriptor for the whole group.
func (l *Location) AsyncRMIBulk(dest int, h Handle, ops, bytes int, fn func(obj any, loc *Location)) {
	l.stats.bulkRMIs.Add(1)
	l.stats.bulkOps.Add(int64(ops))
	l.issue(dest, h, transport.KindBulk, bytes, closureOp, fn)
}

// AsyncRMIBulkOp is AsyncRMIBulk for a registered operation (see
// AsyncRMIOpSized): one request carries a whole element group in arg.
func (l *Location) AsyncRMIBulkOp(dest int, h Handle, ops, bytes int, op OpID, arg any) {
	l.stats.bulkRMIs.Add(1)
	l.stats.bulkOps.Add(int64(ops))
	l.issue(dest, h, transport.KindBulk, bytes, opByID(op), arg)
}

// SyncRMI executes fn against the representative of handle h on location
// dest and blocks until the result is available.  In process with no
// RemoteDelay, fn runs on the calling goroutine if dest's server is idle, just
// as that server would have run it; otherwise through dest's mailbox.
// Synchronous RMIs issued by RMI handlers themselves must not target a
// location whose handler is blocked on this location (the framework's own
// handlers never block; they forward asynchronously instead).
func (l *Location) SyncRMI(dest int, h Handle, fn func(obj any, loc *Location) any) any {
	l.stats.syncRMIs.Add(1)
	if dest == l.id {
		// In place, like every local invocation: no record, no park.
		l.stats.rmisSent.Add(1)
		l.localRMIs.Add(1)
		return fn(l.object(h), l)
	}
	c := syncCalls.Get().(*syncCall)
	c.fn = fn
	l.issue(dest, h, transport.KindSync, 0, syncClosureOp, c)
	l.Wait(&c.w)
	out := c.out
	c.fn, c.out = nil, nil
	syncCalls.Put(c)
	// The response itself is one message on the simulated interconnect,
	// carrying the marshalled result.
	l.AccountReply(l.PayloadBytes(out))
	return out
}

// ReplyOp sends the result of a value-returning registered operation back to
// the request's origin, addressed by the completion token the request
// carried.  op names the operation whose reply codec marshals v on the wire.
// The reply moves NO machine counters here: the handler that computed v
// accounts the reply traffic itself with AccountReply, exactly like the
// shared-memory completion path, so Stats stay transport-independent.
func (l *Location) ReplyOp(dest int, h Handle, op OpID, token uint64, v any) {
	if dest == l.id {
		l.completeToken(token, v)
		return
	}
	req := getRequest()
	*req = rmiRequest{src: l.id, handle: h, kind: transport.KindReply, arg: v, op: opByID(op), token: token, delay: l.delayTo(dest)}
	l.machine.addPending(l.id, 1)
	l.machine.transport.DeliverOne(l.id, dest, req)
}

// AccountDirectoryRMI attributes n of this location's recently issued RMIs to
// directory maintenance (ownership publication, cache fills, epoch bumps), so
// machine statistics can separate the metadata traffic a distributed
// directory generates from the element traffic it serves.  The RMIs
// themselves are ordinary Async/Bulk requests and stay counted in
// RMIsSent/MessagesSent; this is an additional category, like BulkOps.
func (l *Location) AccountDirectoryRMI(n int) {
	l.stats.directoryRMIs.Add(int64(n))
}

// AccountReply records one response message of the given simulated payload
// size.  Framework code that answers a request out-of-band (bulk gathers,
// split-phase completions routed through shared memory) uses it so the
// machine statistics still see the traffic a real interconnect would carry.
func (l *Location) AccountReply(bytes int) {
	l.stats.messagesSent.Add(1)
	l.stats.bytesSimulated.Add(int64(bytes))
}

// delayTo returns the configured artificial latency between this location
// and dest, or zero.
func (l *Location) delayTo(dest int) time.Duration {
	if l.cfg.RemoteDelay == nil {
		return 0
	}
	return l.cfg.RemoteDelay(l.id, dest)
}

// batchPool recycles the aggregation buffers: a buffer is swapped out when it
// flushes, copied into the destination mailbox, and returned here.  It holds
// pointers to slices — pooling the slice itself would box its header on every
// Put.
var batchPool = sync.Pool{New: func() any {
	b := make([]*rmiRequest, 0, 64)
	return &b
}}

// shipBatch delivers a buffer taken out of aggBufs (never empty: a buffer is
// drawn for the request appended to it) as one message and recycles it.
func (l *Location) shipBatch(dest int, buf *[]*rmiRequest) {
	l.stats.messagesSent.Add(1)
	l.machine.transport.Deliver(l.id, dest, *buf)
	clear(*buf)
	*buf = (*buf)[:0]
	batchPool.Put(buf)
}

// enqueue places an asynchronous request in the aggregation buffer for dest,
// flushing the buffer as a single batch when it reaches the aggregation
// factor.
func (l *Location) enqueue(dest int, req *rmiRequest) {
	l.machine.addPending(l.id, 1)
	if l.cfg.Aggregation <= 1 {
		l.stats.messagesSent.Add(1)
		l.machine.transport.DeliverOne(l.id, dest, req)
		return
	}
	l.aggMu.Lock()
	buf := l.aggBufs[dest]
	if buf == nil {
		buf = batchPool.Get().(*[]*rmiRequest)
		l.aggBufs[dest] = buf
	}
	*buf = append(*buf, req)
	full := len(*buf) >= l.cfg.Aggregation
	if full {
		l.aggBufs[dest] = nil
	}
	l.aggMu.Unlock()
	if full {
		l.shipBatch(dest, buf)
	}
}

// flushDest delivers any buffered asynchronous requests destined to dest.
func (l *Location) flushDest(dest int) {
	if l.cfg.Aggregation <= 1 {
		return
	}
	l.aggMu.Lock()
	buf := l.aggBufs[dest]
	l.aggBufs[dest] = nil
	l.aggMu.Unlock()
	if buf != nil {
		l.shipBatch(dest, buf)
	}
}

// flushAll delivers every buffered asynchronous request.  The server calls
// it at the end of a batch while the machine drains, and OneSidedFence, which
// a handler may call; everybody else goes through flushBetweenBatches.
func (l *Location) flushAll() {
	if l.cfg.Aggregation <= 1 {
		return
	}
	for d := 0; d < l.n; d++ {
		l.flushDest(d)
	}
}

// flushBetweenBatches is flushAll for the collective callers — a fence, the
// end of the SPMD body, the run loop: it waits out the mailbox batch this
// location's server is executing, so the flush sees all of that batch's sends
// or none of them.
func (l *Location) flushBetweenBatches() {
	l.batchMu.Lock()
	l.flushAll()
	l.batchMu.Unlock()
}
