package main

// This file is the benchmark's vocabulary: the workloads and the metric
// names.  BENCHMARK.json at the repository root lists the same names; the
// package test fails when the two disagree.

import "slices"

var specs = []*spec{
	{
		name: "elem-sync", p: 4, drivers: 1, cycle: 1, ops: elemSyncOps,
		why:     "blocking remote reads: the sync round trip and the directory read path do nearly all the work; bulk, views, palgo and the wire do none",
		opUnit:  "blocking remote read",
		latUnit: "one read (every 8th timed)",
		build:   buildElemSync,
	},
	{
		name: "elem-async", p: 2, drivers: 1, cycle: 1, ops: elemAsyncOps,
		why:     "remote writes and split-phase reads: aggregation, batch delivery and future completion with no per-op round trip, so a read gain bought with write cost shows",
		opUnit:  "async write, split-phase read or structural update",
		latUnit: "one burst of 64 writes, first issue to fence return",
		build:   buildElemAsync,
	},
	{
		name: "elem-local", p: 2, drivers: 1, cycle: 1, ops: elemLocalOps,
		why:     "100% local element methods through the container interface: isolates core resolve, is-local, lock bracket and bContainer forwarding; sends no RMI",
		opUnit:  "local element method",
		latUnit: "one interleaved block of 1024 ops",
		build:   buildElemLocal,
	},
	{
		name: "coarse-kernels", p: 2, drivers: 2, cycle: coarseSteps, ops: coarseOps, verifyEvery: 64,
		why:     "bulk and coarsened operations: core bulk grouping, views.Coarsen, palgo, bcontainer and redistribute do the work; per-element RMIs are about zero",
		opUnit:  "element processed",
		latUnit: "one step of the sweep (9 per sweep), barrier to barrier",
		build:   buildCoarse,
	},
	{
		name: "wire-tcp", p: 2, drivers: 1, tcp: true, cycle: 1, ops: wireTCPOps,
		why:     "reads, write bursts and bulk over loopback TCP: codec, framing, Reliable seq/ack and the socket do most of the work here and none in the other four",
		opUnit:  "element read or written over the wire",
		latUnit: "one blocking read",
		build:   buildWireTCP,
	},
}

func findSpec(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// metricDef names one metric.  better is "lower" or "higher"; bound (end-to-end
// metrics only) is the share of the parent's median by which the metric may
// get worse before a change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the containers would see.  Every one is
// reported, and is non-zero, on every workload.  The issue also listed
// msgs_per_kop, bytes_per_op and failed_ops_share here; the first two are
// zero by design on elem-local and the third is zero on every correct run,
// and a bounded metric must never be zero, so the first two are per-layer
// metrics (runtime.*) and the third is the correct/attempted/failed triple
// of the result line.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"resident_mb", "MB", "lower", 0.05},
}

func endToEndValues(r *result) map[string]float64 {
	return map[string]float64{
		"setup_s":       slices.Min(r.setupS),
		"ops_per_s":     r.ops,
		"op_p50_us":     r.p50us,
		"op_p99_us":     r.p99us,
		"cpu_us_per_op": r.cpuUsPerOp,
		"allocs_per_op": r.allocsPerOp,
		"resident_mb":   r.residentMB,
	}
}

// perLayer lists the per-layer metrics; layer = module name.  Sources: (P)
// isolated probe, (T) traced run, (C) counter delta, (R) residual of probes.
// A metric whose layer a workload never enters reads 0 on that workload.
var perLayer = []metricDef{
	// partition (P)
	{"partition.balanced_find_ns", "ns", "lower", 0},
	{"partition.explicit_find_ns", "ns", "lower", 0},
	{"partition.hashed_find_ns", "ns", "lower", 0},
	{"partition.blockcyclic_find_ns", "ns", "lower", 0},
	// core
	{"core.resolve_bulk_ns_per_elem", "ns", "lower", 0},       // P
	{"core.lock_bracket_ns", "ns", "lower", 0},                // P
	{"core.invoke_local_overhead_ns", "ns", "lower", 0},       // R
	{"core.invoke_remote_overhead_ns", "ns", "lower", 0},      // R
	{"core.directory.cached_resolve_ns", "ns", "lower", 0},    // P
	{"core.directory.hit_ratio", "ratio", "higher", 0},        // C
	{"core.directory.rmis_per_read", "count", "lower", 0},     // C
	{"core.redistribute.ns_per_elem", "ns", "lower", 0},       // T
	{"core.redistribute.bytes_per_elem", "B", "lower", 0},     // C
	{"core.redistribute.msgs_per_round", "count", "lower", 0}, // C
	// bcontainer (P)
	{"bcontainer.array_get_ns", "ns", "lower", 0},
	{"bcontainer.vector_insert_ns", "ns", "lower", 0},
	{"bcontainer.list_insert_ns", "ns", "lower", 0},
	{"bcontainer.hashmap_find_ns", "ns", "lower", 0},
	{"bcontainer.setchunk_contains_ns", "ns", "lower", 0},
	{"bcontainer.csr_row_ns_per_nnz", "ns", "lower", 0},
	{"bcontainer.graph_outedges_ns", "ns", "lower", 0},
	// runtime: bare machine, empty registered operation (P)
	{"runtime.sync_rmi_ns", "ns", "lower", 0},
	{"runtime.async_rmi_ns", "ns", "lower", 0},
	{"runtime.split_rmi_ns", "ns", "lower", 0},
	{"runtime.bulk_rmi_ns", "ns", "lower", 0},
	{"runtime.future_wait_ns", "ns", "lower", 0},
	{"runtime.fence_us", "us", "lower", 0},
	{"runtime.onesided_fence_us", "us", "lower", 0},
	{"runtime.barrier_us", "us", "lower", 0},
	{"runtime.allreduce_us", "us", "lower", 0},
	{"runtime.broadcast_us", "us", "lower", 0},
	{"runtime.execute_us.inproc", "us", "lower", 0},
	{"runtime.execute_us.tcp", "us", "lower", 0},
	// runtime: in the workload (C)
	{"runtime.rmis_per_kop", "count", "lower", 0},
	{"runtime.msgs_per_kop", "count", "lower", 0},
	{"runtime.bytes_per_op", "B", "lower", 0},
	{"runtime.aggregation_occupancy", "ratio", "higher", 0},
	{"runtime.sync_share", "ratio", "lower", 0},
	{"runtime.fences_per_round", "count", "lower", 0},
	{"runtime.sizer_misses", "count", "lower", 0},
	// transport
	{"transport.codec_encode_ns", "ns", "lower", 0},                 // P
	{"transport.codec_decode_ns", "ns", "lower", 0},                 // P
	{"transport.frame_encode_ns", "ns", "lower", 0},                 // P
	{"transport.frame_decode_ns", "ns", "lower", 0},                 // P
	{"transport.frame_bytes_per_req", "B", "lower", 0},              // P
	{"transport.reliable_send_ns", "ns", "lower", 0},                // P
	{"transport.tcp_rtt_us", "us", "lower", 0},                      // P
	{"transport.tcp_stream_ns_per_frame", "ns", "lower", 0},         // P
	{"transport.frames_per_kop", "count", "lower", 0},               // C
	{"transport.wire_bytes_per_op", "B", "lower", 0},                // C
	{"transport.acks_per_data_frame", "ratio", "lower", 0},          // C
	{"transport.retransmits", "count", "lower", 0},                  // C
	{"transport.rendezvous_fallbacks_per_kop", "count", "lower", 0}, // C
	{"transport.protocol_overhead_us", "us", "lower", 0},            // R
	{"transport.socket_overhead_us", "us", "lower", 0},              // R
	// containers: per call kind (T)
	{"containers.parray.get_local_ns", "ns", "lower", 0},
	{"containers.parray.get_remote_ns", "ns", "lower", 0},
	{"containers.parray.set_issue_ns", "ns", "lower", 0},
	{"containers.parray.getsplit_issue_ns", "ns", "lower", 0},
	{"containers.parray.applyset_issue_ns", "ns", "lower", 0},
	{"containers.parray.setbulk_ns_per_elem", "ns", "lower", 0},
	{"containers.parray.getbulk_ns_per_elem", "ns", "lower", 0},
	{"containers.passoc.find_local_ns", "ns", "lower", 0},
	{"containers.passoc.find_remote_ns", "ns", "lower", 0},
	{"containers.passoc.insert_issue_ns", "ns", "lower", 0},
	{"containers.pvector.get_local_ns", "ns", "lower", 0},
	{"containers.pvector.insert_local_ns", "ns", "lower", 0},
	{"containers.plist.insert_local_ns", "ns", "lower", 0},
	{"containers.plist.erase_local_ns", "ns", "lower", 0},
	{"containers.plist.get_dir_remote_ns", "ns", "lower", 0},
	{"containers.pgraph.vertex_property_cached_ns", "ns", "lower", 0},
	{"containers.pgraph.vertex_property_uncached_ns", "ns", "lower", 0},
	{"containers.pgraph.add_edge_issue_ns", "ns", "lower", 0},
	{"containers.pmatrix.get_local_ns", "ns", "lower", 0},
	// views
	{"views.coarsen_us", "us", "lower", 0},            // T
	{"views.chunks_per_coarsen", "count", "lower", 0}, // C
	{"views.native_share", "ratio", "higher", 0},      // C
	{"views.balanced_get_ns", "ns", "lower", 0},       // T
	// palgo (T; the last one computed from array sizes)
	{"palgo.transform_ns_per_elem", "ns", "lower", 0},
	{"palgo.matvec_ns_per_cell", "ns", "lower", 0},
	{"palgo.spmv_ns_per_nnz", "ns", "lower", 0},
	{"palgo.samplesort_ns_per_elem", "ns", "lower", 0},
	{"palgo.jacobi1d_ns_per_cell", "ns", "lower", 0},
	{"palgo.accumulate_ns_per_elem", "ns", "lower", 0},
	{"palgo.matvec_bytes_per_cell_computed", "B", "lower", 0},
	// harness
	{"trace.overhead_share", "ratio", "lower", 0},
	{"trace.spans_per_round", "count", "lower", 0},
}

// ratio returns a/b, or 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerValues assembles every per-layer metric of one workload but
// trace.overhead_share (which takes several runs, see runTraced) from an
// untraced run (counters), a traced run (spans) and the probes.
func perLayerValues(plain, traced *result, fold traceFold, probes map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = 0
	}
	for name, v := range probes {
		if _, listed := out[name]; listed { // the probes also return the terms of the residuals
			out[name] = v
		}
	}
	for k, ns := range fold.perKind {
		if m := kinds[k].metric; m != "" {
			out[m] = ns / kinds[k].scale
		}
	}

	st, ops := plain.stats, plain.totalOps()
	out["runtime.rmis_per_kop"] = float64(st.RMIsSent) * 1000 / ops
	out["runtime.msgs_per_kop"] = float64(st.MessagesSent) * 1000 / ops
	out["runtime.bytes_per_op"] = float64(st.BytesSimulated) / ops
	out["runtime.aggregation_occupancy"] = ratio(float64(st.AsyncRMIs), float64(st.MessagesSent))
	out["runtime.sync_share"] = ratio(float64(st.SyncRMIs), float64(st.RMIsSent))
	out["runtime.fences_per_round"] = float64(st.Fences) / float64(plain.rounds)
	out["runtime.sizer_misses"] = float64(st.SizerMisses)

	w := plain.wire
	out["transport.frames_per_kop"] = float64(w.FramesSent) * 1000 / ops
	out["transport.wire_bytes_per_op"] = float64(w.BytesSent) / ops
	out["transport.acks_per_data_frame"] = ratio(float64(w.Acks), float64(w.DataFrames))
	out["transport.retransmits"] = float64(w.Retransmits)
	out["transport.rendezvous_fallbacks_per_kop"] = float64(w.RendezvousFallbacks) * 1000 / ops

	c := plain.counters
	out["core.directory.hit_ratio"] = ratio(c["dir.hits"], c["dir.hits"]+c["dir.misses"])
	out["core.directory.rmis_per_read"] = c["dir.rmis_per_read"]
	out["core.redistribute.bytes_per_elem"] = c["redist.bytes"] / (2 * coarseRedistN)
	out["core.redistribute.msgs_per_round"] = c["redist.msgs"]
	out["views.chunks_per_coarsen"] = c["views.chunks"]
	out["views.native_share"] = c["views.native_share"]
	if plain.spec.name == "coarse-kernels" {
		const dv = coarseMatrixSide
		out["palgo.matvec_bytes_per_cell_computed"] = float64(8*(dv*dv+2*dv)) / float64(dv*dv)
	}

	out["trace.spans_per_round"] = float64(fold.spanCount) / float64(traced.rounds)
	return out
}
