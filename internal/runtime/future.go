package runtime

import "sync"

// Future is the handle returned by split-phase container methods (the paper's
// pc_future): the caller issues the method, goes on with other work and asks
// for the result when it wants it.
// Get blocks until the remote method has executed and its result is
// available.  A Future is completed exactly once and may be read any number
// of times from any goroutine, before or after completion — which is what its
// mutex, its untyped value and its lazily made channel are for.  It is NOT how
// a blocking call waits: a synchronous method has exactly one reader, parked
// from the start, and uses a Waiter next to a typed result cell instead.
//
// Completion is signalled through a channel (not a condition variable) so
// that a waiter can simultaneously watch the owning machine's abort channel:
// when the machine aborts — the handler that would have completed the future
// died with it — Get unwinds the waiter instead of blocking forever.
type Future struct {
	mu        sync.Mutex
	done      chan struct{} // allocated lazily by the first blocking Get
	completed bool
	value     any
	// abort, when set (Location.NewAbortableFuture), is the owning machine's
	// abort channel; a nil channel never fires, so a plain future blocks
	// until completed.
	abort <-chan struct{}
}

// NewFuture returns an incomplete future.  The completion channel is
// allocated only if a caller actually blocks in Get: split-phase traffic
// whose results are harvested after completion (the common fence-then-read
// pattern, or TryGet polling) never pays for a channel.
func NewFuture() *Future {
	return &Future{}
}

// Complete stores the result and wakes all waiters.  Completing an already
// complete future panics: the RTS guarantees each split-phase invocation
// produces exactly one acknowledgement.
func (f *Future) Complete(v any) {
	f.mu.Lock()
	if f.completed {
		f.mu.Unlock()
		panic("runtime: Future completed twice")
	}
	f.value = v
	f.completed = true
	if f.done != nil {
		close(f.done)
	}
	f.mu.Unlock()
}

// Get blocks until the result is available and returns it.  If the owning
// machine aborts first, Get unwinds the calling goroutine (the completion
// will never arrive).
func (f *Future) Get() any {
	f.mu.Lock()
	if f.completed {
		v := f.value
		f.mu.Unlock()
		return v
	}
	if f.done == nil {
		f.done = make(chan struct{})
	}
	done := f.done
	abort := f.abort
	f.mu.Unlock()
	select {
	case <-done:
	case <-abort:
		// Re-check: completion may have raced the abort.
		select {
		case <-done:
		default:
			panic(abortSignal{})
		}
	}
	// The close of done happens after value is written, so this read is
	// ordered.
	return f.value
}

// TryGet returns (value, true) if the result is already available, without
// blocking, and (zero, false) otherwise.
func (f *Future) TryGet() (any, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.completed {
		return nil, false
	}
	return f.value, true
}

// Done reports whether the result is available.
func (f *Future) Done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.completed
}

// FutureOf is a typed wrapper around Future (see NewFutureOf).
type FutureOf[T any] struct {
	f *Future
	// project extracts the T from the untyped value; nil when the value is
	// the T itself.
	project func(any) T
}

// NewFutureOf wraps an untyped future whose value is a T.
func NewFutureOf[T any](f *Future) *FutureOf[T] { return &FutureOf[T]{f: f} }

// MapFuture wraps an untyped future whose value carries more than the T the
// caller is promised (a find's (value, ok) reply): project picks the T out.
func MapFuture[T any](f *Future, project func(any) T) *FutureOf[T] {
	return &FutureOf[T]{f: f, project: project}
}

// CompletedFuture returns an already-resolved typed future holding v.
func CompletedFuture[T any](v T) *FutureOf[T] {
	f := NewFuture()
	f.Complete(v)
	return &FutureOf[T]{f: f}
}

func (f *FutureOf[T]) typed(v any) T {
	if f.project != nil {
		return f.project(v)
	}
	return v.(T)
}

// Get blocks until the value is available.
func (f *FutureOf[T]) Get() T { return f.typed(f.f.Get()) }

// TryGet returns the value without blocking if it is available.
func (f *FutureOf[T]) TryGet() (T, bool) {
	v, ok := f.f.TryGet()
	if !ok {
		var zero T
		return zero, false
	}
	return f.typed(v), true
}

// Done reports whether the value is available.
func (f *FutureOf[T]) Done() bool { return f.f.Done() }

// Untyped exposes the underlying untyped future.
func (f *FutureOf[T]) Untyped() *Future { return f.f }
