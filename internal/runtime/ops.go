package runtime

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/transport"
)

// This file implements the operation registry.  A registered operation binds
// a stable op ID to a static handler and the codecs of its argument (and
// reply) types; the Op RMI variants issue it as ID + argument, with no
// capturing closure.  What the codecs are for is the wire adapter's business
// alone (see wireTransport): an operation registered with real codecs is
// BY-VALUE — its requests cross a wire as self-decoding frames the receiver
// reconstructs from bytes, which is what lets them cross a process boundary —
// while an operation registered with a zero Codec is BY-REFERENCE: same
// handler, same pooled argument, same counters, but on a wire its requests
// travel like closures do, as bare descriptors matched to sender-side state
// through the rendezvous table (single-process wires only, counted by
// WireStats.RendezvousFallbacks).  Callers never ask which kind they hold.

// OpID is the stable identity of a registered operation: the FNV-64a hash of
// its registration name.  Hashing the name (rather than numbering
// registrations) makes the ID independent of registration order, so
// cooperating processes agree on IDs without negotiation.  Zero is never a
// registered operation's ID: on the wire it marks a descriptor whose request
// waits in the sender's rendezvous table.
type OpID uint64

// opIDFor hashes a registration name to its op ID (FNV-64a).
func opIDFor(name string) OpID {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	if h == 0 {
		h = 1 // zero marks a rendezvous descriptor on the wire
	}
	return OpID(h)
}

// opEntry is the registered implementation of one operation, type-erased so
// the wire receive path can reconstruct any request without generics.
type opEntry struct {
	name string
	id   OpID
	// exec runs the operation at the destination.  It owns arg: handlers of
	// pooled argument types release them after applying the operation.
	exec handler
	// encode/decode marshal the argument; both nil for a by-reference
	// operation.  decode allocates (or takes from a pool) a fresh argument, so
	// the decoded request owns it like a local one.
	encode func(b *transport.Buffer, arg any)
	decode func(b *transport.Buffer) any
	// release returns an encoded-and-dropped argument to its pool (sender
	// side of a self-decoding batch).  May be nil.
	release func(arg any)
	// encodeRet/decodeRet marshal the operation's reply value (KindReply
	// frames).  Nil for operations that return nothing, and for by-reference
	// operations.
	encodeRet func(b *transport.Buffer, v any)
	decodeRet func(b *transport.Buffer) any
	// releaseRet is release for an encoded-and-dropped reply value.  May be
	// nil.
	releaseRet func(v any)
	// parks reports whether the issuer of arg waits until the handler has run
	// (Location.borrow).  Nil when no issuer of the operation ever does.
	parks func(arg any) bool
}

// Registration is init-time and rare while every RMI issue and every decoded
// frame looks an operation up by ID, so opsByID is an immutable snapshot:
// readers take it with one atomic load, a registration publishes a copy.
var (
	opMu      sync.Mutex // guards opsByName, serialises registrations
	opsByName = map[string]OpID{}
	opsByID   atomic.Pointer[map[OpID]*opEntry]
)

func registerOpEntry(name string, e *opEntry) OpID {
	if name == "" {
		panic("runtime: operation with empty name")
	}
	id := opIDFor(name)
	e.name, e.id = name, id
	opMu.Lock()
	defer opMu.Unlock()
	if _, dup := opsByName[name]; dup {
		panic(fmt.Sprintf("runtime: operation %q registered twice", name))
	}
	next := map[OpID]*opEntry{id: e}
	if old := opsByID.Load(); old != nil {
		if prev, collide := (*old)[id]; collide {
			panic(fmt.Sprintf("runtime: operation id collision: %q and %q both hash to %#x", prev.name, name, uint64(id)))
		}
		maps.Copy(next, *old)
	}
	opsByName[name] = id
	opsByID.Store(&next)
	return id
}

// opByID resolves an op ID to its entry, panicking on an unknown ID (a frame
// naming an operation this process never registered is unexecutable).
func opByID(id OpID) *opEntry {
	if tab := opsByID.Load(); tab != nil {
		if e := (*tab)[id]; e != nil {
			return e
		}
	}
	panic(fmt.Sprintf("runtime: no operation registered under id %#x", uint64(id)))
}

// RegisterOp registers a void operation: a static handler plus the codec of
// its argument type (a zero Codec registers a by-reference operation, see the
// file comment).  The returned OpID is what the Op RMI variants
// (AsyncRMIOpSized, AsyncRMIUrgentOp, AsyncRMIBulkOp) take.  release, when
// non-nil, returns an argument to its pool after a self-decoding send encoded
// and dropped it; handlers release their own (decoded or locally delivered)
// arguments.  Registration names must be unique and stable across processes —
// derive them from codec names, not from registration order.  Panics on a
// duplicate name or an ID collision.
func RegisterOp[A any](name string, argCodec transport.Codec[A], exec func(obj any, loc *Location, arg A), release func(A)) OpID {
	return registerOpEntry(name, newOpEntry(argCodec, exec, release))
}

// RegisterOpRet registers a value-returning operation.  The handler computes
// the result itself and sends it home with Location.ReplyOp (or, on in-process
// delivery, hands it to whatever the argument carries: a blocking caller's
// result cell and Waiter, a split-phase caller's Future); retCodec is
// how a by-value operation's reply is marshalled on KindReply frames.  The
// operation is by-value only if both codecs are.  releaseRet, when non-nil, is
// release for replies: it returns a pooled reply value to its pool after the
// answering side encoded and dropped it (the origin's completion callback
// recycles the decoded one).  parks, when non-nil, picks out the arguments
// whose issuer waits until the handler has run (SyncRMI says what that allows).
func RegisterOpRet[A any, R any](name string, argCodec transport.Codec[A], retCodec transport.Codec[R], exec func(obj any, loc *Location, arg A), release func(A), releaseRet func(R), parks func(A) bool) OpID {
	if !retCodec.ByValue() {
		argCodec = transport.Codec[A]{}
	}
	e := newOpEntry(argCodec, exec, release)
	if parks != nil {
		e.parks = func(arg any) bool { return parks(arg.(A)) }
	}
	if e.encode != nil {
		e.encodeRet = func(b *transport.Buffer, v any) { retCodec.Encode(b, v.(R)) }
		e.decodeRet = func(b *transport.Buffer) any { return retCodec.Decode(b) }
		if releaseRet != nil {
			e.releaseRet = func(v any) { releaseRet(v.(R)) }
		}
	}
	return registerOpEntry(name, e)
}

func newOpEntry[A any](argCodec transport.Codec[A], exec func(obj any, loc *Location, arg A), release func(A)) *opEntry {
	e := &opEntry{exec: func(obj any, loc *Location, arg any) { exec(obj, loc, arg.(A)) }}
	if argCodec.ByValue() {
		e.encode = func(b *transport.Buffer, arg any) { argCodec.Encode(b, arg.(A)) }
		e.decode = func(b *transport.Buffer) any { return argCodec.Decode(b) }
	}
	if release != nil {
		e.release = func(arg any) { release(arg.(A)) }
	}
	return e
}

// RegisteredOps returns the names of all registered operations, sorted (for
// tests and diagnostics).
func RegisteredOps() []string {
	opMu.Lock()
	defer opMu.Unlock()
	out := make([]string, 0, len(opsByName))
	for name := range opsByName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// OpIDOf reports the id registered under name.
func OpIDOf(name string) (OpID, bool) {
	opMu.Lock()
	defer opMu.Unlock()
	id, ok := opsByName[name]
	return id, ok
}

// Completion tokens.
//
// A value-returning operation on a self-decoding transport cannot carry its
// *Future across the wire; instead the origin registers a completion callback
// under a per-location token, ships the token inside the encoded argument,
// and the destination answers with a KindReply frame naming the token.  The
// location server routes the reply to the callback (see Location.execute).

// RegisterToken installs a completion callback and returns its (nonzero)
// token.  The callback runs on the location's server goroutine once per
// matching reply; returning true removes the registration (one-shot
// completions), returning false keeps it live for further replies (bulk
// gathers with one reply per destination group) until UnregisterToken.
func (l *Location) RegisterToken(fn func(v any) bool) uint64 {
	l.tokMu.Lock()
	l.tokenSeq++
	tok := l.tokenSeq
	if l.tokens == nil {
		l.tokens = make(map[uint64]func(v any) bool)
	}
	l.tokens[tok] = fn
	l.tokMu.Unlock()
	return tok
}

// UnregisterToken removes a completion callback (no-op if already removed).
func (l *Location) UnregisterToken(tok uint64) {
	l.tokMu.Lock()
	delete(l.tokens, tok)
	l.tokMu.Unlock()
}

// completeToken routes a KindReply value to its registered callback.  A
// missing token is dropped silently: it can only arise from a reply that
// outlived an aborted run's cleanup.
func (l *Location) completeToken(tok uint64, v any) {
	l.tokMu.Lock()
	fn := l.tokens[tok]
	l.tokMu.Unlock()
	if fn == nil {
		return
	}
	if fn(v) {
		l.UnregisterToken(tok)
	}
}

// OpCrossesByValue reports whether a request for op issued now would be
// rebuilt from bytes at its destination: the machine's current transport is a
// wire and op is by-value.  A value-returning operation asks before it issues
// a request: if so the completion must travel home as a token and a KindReply
// frame; otherwise the argument record reaches the handler by pointer (in
// process, or through the rendezvous) and carries the future itself.  Outside
// an Execute run there is no transport and the answer is false.
func (l *Location) OpCrossesByValue(op OpID) bool {
	t := l.machine.transport
	return t != nil && t.SelfDecoding() && opByID(op).encode != nil
}

// NewAbortableFuture returns a future wired to this machine's abort channel,
// so a blocked Get unwinds instead of deadlocking when the completion will
// never arrive (the answering handler panicked, or its process died).
func (l *Location) NewAbortableFuture() *Future {
	fut := NewFuture()
	fut.abort = l.machine.abortCh
	return fut
}
