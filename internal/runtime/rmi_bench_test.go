package runtime

import (
	"sync/atomic"
	"testing"

	"repro/internal/transport"
)

// The micro-benchmarks pin the per-operation cost of the RMI hot path: one
// driving location issues requests to a neighbour while the rest of the
// machine serves.  They are run with -benchmem in the bench-time CI job, so
// allocs/op growth on the send path is visible in every PR (ns/op is
// advisory — CI machines differ — but allocs/op is deterministic).
//
// The timed region includes the final fence: what is measured is the full
// cost of issuing b.N requests AND having every handler execute, i.e.
// sustained throughput, not just the enqueue latency.

// benchSink is the registered p_object the benchmark requests target.
type benchSink struct {
	hits atomic.Int64
}

// benchDrive builds a 2-location machine, registers a benchSink on every
// location and runs body on location 0 bracketed by barrier and fence.
func benchDrive(b *testing.B, cfg Config, body func(loc *Location, h Handle)) {
	b.Helper()
	m := NewMachine(2, cfg)
	m.Execute(func(loc *Location) {
		h := loc.RegisterObject(&benchSink{})
		loc.Barrier()
		if loc.ID() == 0 {
			body(loc, h)
			// One-sided: only location 0 is past the issuing loop, so the
			// collective Fence would deadlock here.
			loc.OneSidedFence()
		}
		loc.Barrier()
	})
}

// bump is a static handler: it captures nothing, so the request side pays
// only for what the runtime itself allocates.
func bump(obj any, _ *Location) { obj.(*benchSink).hits.Add(1) }

// bumpOp is bump as a registered operation — what every container hot path
// issues — and bumpRefOp its by-reference twin (zero codec).
var (
	bumpOp    = RegisterOp("runtime-test/bump", transport.Int64Codec, bumpBy, nil)
	bumpRefOp = RegisterOp("runtime-test/bump-ref", transport.Codec[int64]{}, bumpBy, nil)
)

func bumpBy(obj any, _ *Location, v int64) { obj.(*benchSink).hits.Add(v) }

// BenchmarkAsyncRMI measures the aggregated asynchronous path with a
// CAPTURING closure per request — the pre-optimisation container idiom.
func BenchmarkAsyncRMI(b *testing.B) {
	benchDrive(b, DefaultConfig(), func(loc *Location, h Handle) {
		var v int64 = 1
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			loc.AsyncRMI(1, h, func(obj any, _ *Location) { obj.(*benchSink).hits.Add(v) })
		}
	})
}

// BenchmarkAsyncRMIOp measures the same path through a registered operation:
// a static handler plus an explicit argument, no closure.
func BenchmarkAsyncRMIOp(b *testing.B) {
	benchDrive(b, DefaultConfig(), func(loc *Location, h Handle) {
		arg := any(int64(1)) // boxed once; per-op boxing is the caller's choice
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			loc.AsyncRMIOpSized(1, h, 0, bumpOp, arg)
		}
	})
}

// BenchmarkSyncRMI measures the blocking round trip: request, handler,
// response channel, reply accounting.
func BenchmarkSyncRMI(b *testing.B) {
	benchDrive(b, DefaultConfig(), func(loc *Location, h Handle) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = loc.SyncRMI(1, h, func(obj any, _ *Location) any {
				return obj.(*benchSink).hits.Add(1)
			})
		}
	})
}

// BenchmarkSplitPhase measures the split-phase issue + Get round trip as the
// PCF builds it: an urgent request completing an abortable future.
func BenchmarkSplitPhase(b *testing.B) {
	benchDrive(b, DefaultConfig(), func(loc *Location, h Handle) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fut := splitCall(loc, 1, h, func(obj any, _ *Location) int64 {
				return obj.(*benchSink).hits.Add(1)
			})
			_ = fut.Get()
		}
	})
}

// BenchmarkBulkFlush measures the per-destination bulk ship: one sized bulk
// request standing for a whole element group (the flush path every container
// SetBulk/GetBulk rides).  allocs/op here is allocs per DESTINATION flush.
func BenchmarkBulkFlush(b *testing.B) {
	benchDrive(b, DefaultConfig(), func(loc *Location, h Handle) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			loc.AsyncRMIBulk(1, h, 1024, 8192, bump)
		}
	})
}

// BenchmarkBulkFlushOp is BenchmarkBulkFlush through a registered operation,
// the form the core bulk skeletons ship their groups in.
func BenchmarkBulkFlushOp(b *testing.B) {
	benchDrive(b, DefaultConfig(), func(loc *Location, h Handle) {
		arg := any(int64(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			loc.AsyncRMIBulkOp(1, h, 1024, 8192, bumpOp, arg)
		}
	})
}
