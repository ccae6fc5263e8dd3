// Package runtime implements the STAPL run-time system (RTS) substrate used
// by the Parallel Container Framework: locations, the ARMI communication
// layer (asynchronous, synchronous and split-phase remote method
// invocations), futures, global quiescence (rmi_fence), collective
// operations and message aggregation.
//
// The paper's RTS runs on MPI/pthreads across physical nodes.  Here the
// parallel machine is simulated inside one Go process: a Machine owns P
// locations, each location runs the SPMD application function in its own
// goroutine and serves incoming RMIs in a dedicated server goroutine.  All
// cross-location interaction must go through RMIs; containers built on top
// of this package never touch another location's state directly, which
// preserves the semantics (shared-object view, local/remote asymmetry,
// completion-ordering guarantees) that the paper's evaluation depends on.
package runtime
