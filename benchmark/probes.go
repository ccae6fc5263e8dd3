package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"

	"repro/internal/bcontainer"
	"repro/internal/containers/parray"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// The probes time layers the workloads never call directly: each is a loop
// over one exported function, fed inputs drawn from the seed like the
// workloads' own, repeated probeReps times; the reported value is the median
// repeat.  They run in the same process as the traced run but after it, on
// machines of their own.

const (
	probeReps  = 31
	probeCalls = 1024 // calls per repeat of a nanosecond-scale probe
)

// sink keeps probe results alive so the compiler cannot drop the calls.  One
// goroutine at a time writes it: a collective probe accumulates into a local
// on every location and only the driver stores it.
var sink int64

// timeIt runs body, which performs n calls, probeReps times and returns the
// median nanoseconds per call.
func timeIt(n int, body func()) float64 {
	body() // warm-up, discarded
	per := make([]float64, probeReps)
	for i := range per {
		t := now()
		body()
		per[i] = float64(now()-t) / float64(n)
	}
	return median(per)
}

// probeNoop is the empty registered operation the bare-machine runtime
// probes ship.
var probeNoop = runtime.RegisterOp[int64]("benchmark.probe.noop", transport.Int64Codec,
	func(any, *runtime.Location, int64) {}, nil)

// The runtime probes use only entry points the ROADMAP keeps (the closure
// and the registered-operation flavours), not the *Arg/*T ones it deletes.
func noopRet(any, *runtime.Location) any { return nil }

// splitNoop is a split-phase invocation the way core builds one: a future
// completed by an urgent request's handler.
func splitNoop(loc *runtime.Location, h runtime.Handle) *runtime.Future {
	f := loc.NewAbortableFuture()
	loc.AsyncRMIUrgent(1, h, func(any, *runtime.Location) { f.Complete(nil) })
	return f
}

func runProbes(seed int64) map[string]float64 {
	out := map[string]float64{}
	r := rand.New(rand.NewSource(seed*1_000_003 + 99))
	probePartition(out, r)
	probeCore(out)
	probeBContainer(out, r)
	probeRuntime(out)
	probeTransport(out, r)
	probeContainerPaths(out, r, seed)
	return out
}

func probePartition(out map[string]float64, r *rand.Rand) {
	const n, p = 4 * elemPerLoc, 4
	dom := domain.NewRange1D(0, n)
	gids := make([]int64, probeCalls)
	for i := range gids {
		gids[i] = r.Int63n(n)
	}
	explicit, err := partition.NewExplicit(dom, skewedSizes(n, p))
	if err != nil {
		panic(err)
	}
	for name, find := range map[string]func(int64) partition.Info{
		"balanced":    partition.NewBalanced(dom, p).Find,
		"explicit":    explicit.Find,
		"hashed":      partition.NewHashed[int64](p, partition.Int64Hash).Find,
		"blockcyclic": partition.NewBlockCyclic(dom, p, 64).Find,
	} {
		out["partition."+name+"_find_ns"] = timeIt(probeCalls, func() {
			for _, g := range gids {
				sink += int64(find(g).BCID)
			}
		})
	}
}

func probeCore(out map[string]float64) {
	const n, p = 4 * elemPerLoc, 4
	dom := domain.NewRange1D(0, n)
	res := core.IndexedResolver{Partition: partition.NewBalanced(dom, p), Mapper: partition.NewBlockedMapper(p, p)}
	// A bulk chunk as the workloads issue it: a run of consecutive indices.
	chunk := indexRange(elemPerLoc, elemPerLoc+bulkChunk)
	placed := make([]core.Placement, len(chunk))
	out["core.resolve_bulk_ns_per_elem"] = timeIt(len(chunk), func() {
		res.ResolveBulk(chunk, nil, placed)
		sink += int64(placed[0].Dest)
	})
	ths := core.NewBContainerLocking()
	out["core.lock_bracket_ns"] = timeIt(probeCalls, func() {
		for i := 0; i < probeCalls; i++ {
			ths.DataAccessPre(0, core.Read)
			ths.DataAccessPost(0, core.Read)
		}
	})

	// A warm directory cache: location 0 resolves gids that location 1 owns
	// and published, fences, then probes the cache alone.
	m := runtime.NewMachine(2, inprocConfig(1))
	gids := make([]int64, probeCalls)
	for i := range gids {
		gids[i] = int64(i)*2 + 1 // odd gids: homed on location 1
	}
	m.Execute(func(loc *runtime.Location) {
		d := core.NewDirectory(loc, core.DirectoryConfig[int64]{
			Hash: func(g int64) uint64 { return uint64(g) }, Cache: true,
		})
		if loc.ID() == 1 {
			d.PublishBulk(gids, partition.BCID(1))
		}
		loc.Fence()
		if loc.ID() == 0 {
			for _, g := range gids {
				d.CachedResolve(g, d.HomeOf(g)) // cold miss: starts the fill
			}
		}
		loc.Fence()
		if loc.ID() == 0 {
			out["core.directory.cached_resolve_ns"] = timeIt(probeCalls, func() {
				for _, g := range gids {
					if info, ok := d.CachedResolve(g, 1); ok {
						sink += int64(info.BCID)
					}
				}
			})
			if hits, _, _ := d.CacheStats(); hits == 0 {
				panic("benchmark: the directory probe never hit its cache")
			}
		}
		loc.Barrier()
	})
}

func probeBContainer(out map[string]float64, r *rand.Rand) {
	const n = elemPerLoc
	dom := domain.NewRange1D(0, n)
	gids := make([]int64, probeCalls)
	for i := range gids {
		gids[i] = r.Int63n(n)
	}

	arr := bcontainer.NewArray[int64](0, dom)
	out["bcontainer.array_get_ns"] = timeIt(probeCalls, func() {
		for _, g := range gids {
			sink += arr.Get(g)
		}
	})

	// Structural probes time the inserts and restore the container untimed,
	// so every repeat starts from the same size.
	const structural = 256
	vec := bcontainer.NewVector[int64](0, dom)
	out["bcontainer.vector_insert_ns"] = timeStructural(structural, func() {
		for _, g := range gids[:structural] {
			vec.Insert(g, 1)
		}
	}, func() {
		for i := structural - 1; i >= 0; i-- {
			vec.Erase(gids[i])
		}
	})
	lst := bcontainer.NewList[int64](0)
	anchors := make([]int64, structural)
	for i := range anchors {
		anchors[i] = lst.PushBack(int64(i))
	}
	added := make([]int64, structural)
	out["bcontainer.list_insert_ns"] = timeStructural(structural, func() {
		for i, a := range anchors {
			added[i] = lst.InsertBefore(a, 1)
		}
	}, func() {
		for _, id := range added {
			lst.Erase(id)
		}
	})

	hm := bcontainer.NewHashMap[int64, int64](0)
	for k := int64(0); k < n; k++ {
		hm.Insert(k, k)
	}
	out["bcontainer.hashmap_find_ns"] = timeIt(probeCalls, func() {
		for _, g := range gids {
			v, _ := hm.Find(g)
			sink += v
		}
	})

	// 200 members: the sorted-array representation (binary search), the
	// slower of the chunk's two.
	chunkSet := bcontainer.NewSetChunk()
	for i := 0; i < 200; i++ {
		chunkSet.Insert(uint16(r.Intn(bcontainer.SetChunkSize)))
	}
	out["bcontainer.setchunk_contains_ns"] = timeIt(probeCalls, func() {
		for _, g := range gids {
			if chunkSet.Contains(uint16(g & bcontainer.SetChunkMask)) {
				sink++
			}
		}
	})

	// The CSR block of the coarse-kernels SpMV: 1000 x 1000 at 1 % density.
	const dv = coarseMatrixSide
	sp := bcontainer.NewSparseMatrixBlock[int64](0, domain.NewRange1D(0, dv), domain.NewRange1D(0, dv))
	for row := int64(0); row < dv; row++ {
		for col := int64(0); col < dv; col++ {
			if spMember(row, col) {
				sp.Set(domain.Index2D{Row: row, Col: col}, row+2*col+1)
			}
		}
	}
	out["bcontainer.csr_row_ns_per_nnz"] = timeIt(coarseNNZ, func() {
		for row := int64(0); row < dv; row++ {
			cols, vals := sp.RowNZ(row)
			for k := range cols {
				sink += cols[k] + vals[k]
			}
		}
	})

	g := bcontainer.NewGraph[int64, int8](0)
	for v := int64(0); v < 1024; v++ {
		g.AddVertex(v, 0)
	}
	for v := int64(0); v < 1024; v++ {
		for k := int64(1); k <= 8; k++ {
			g.AddEdge(v, (v+k)%1024, 0, false)
		}
	}
	out["bcontainer.graph_outedges_ns"] = timeIt(probeCalls, func() {
		for _, gid := range gids {
			sink += int64(len(g.OutEdges(gid % 1024)))
		}
	})
}

// timeStructural is timeIt for a probe whose timed part must be undone
// (untimed) before it can repeat.
func timeStructural(n int, timed, undo func()) float64 {
	timed()
	undo()
	per := make([]float64, probeReps)
	for i := range per {
		t := now()
		timed()
		per[i] = float64(now()-t) / float64(n)
		undo()
	}
	return median(per)
}

func inprocConfig(seed int64) runtime.Config {
	cfg := runtime.DefaultConfig()
	cfg.Seed = seed
	cfg.Transport = runtime.InprocTransport
	return cfg
}

// probeRuntime times the RMI flavours and the collectives on a bare P=2
// machine with an empty operation, and an empty Execute per transport.
func probeRuntime(out map[string]float64) {
	m := runtime.NewMachine(2, inprocConfig(1))
	type probeObject struct{}
	m.Execute(func(loc *runtime.Location) {
		h := loc.RegisterObject(&probeObject{})
		loc.Barrier()
		driver := loc.ID() == 0
		single := func(name string, scale float64, n int, body func()) {
			if driver {
				out[name] = timeIt(n, body) / scale
			}
			loc.Barrier()
		}
		single("runtime.sync_rmi_ns", 1, probeCalls, func() {
			for i := 0; i < probeCalls; i++ {
				loc.SyncRMI(1, h, noopRet)
			}
		})
		single("runtime.async_rmi_ns", 1, probeCalls, func() {
			for i := 0; i < probeCalls; i++ {
				loc.AsyncRMIOpSized(1, h, 8, probeNoop, int64(i))
			}
			loc.OneSidedFence()
		})
		single("runtime.split_rmi_ns", 1, probeCalls, func() {
			for i := 0; i < probeCalls; i++ {
				splitNoop(loc, h).Get()
			}
		})
		single("runtime.bulk_rmi_ns", 1, 64, func() {
			for i := 0; i < 64; i++ {
				loc.AsyncRMIBulkOp(1, h, bulkChunk, 8*bulkChunk, probeNoop, int64(i))
			}
			loc.OneSidedFence()
		})
		// future_wait: a window of split-phase requests is issued untimed,
		// then harvested timed, as elem-async does.
		if driver {
			var futs [splitWindow]*runtime.Future
			per := make([]float64, 0, probeReps*8)
			for rep := 0; rep < probeReps*8; rep++ {
				for j := range futs {
					futs[j] = splitNoop(loc, h)
				}
				t := now()
				for j := range futs {
					futs[j].Get()
				}
				per = append(per, float64(now()-t)/splitWindow)
			}
			out["runtime.future_wait_ns"] = median(per)
		}
		loc.Barrier()
		single("runtime.onesided_fence_us", 1e3, 64, func() {
			for i := 0; i < 64; i++ {
				loc.AsyncRMIOpSized(1, h, 8, probeNoop, int64(i))
				loc.OneSidedFence()
			}
		})
		collective := func(name string, n int, body func()) {
			v := timeIt(n, body) / 1e3
			if driver {
				out[name] = v
			}
			loc.Barrier()
		}
		collective("runtime.fence_us", 32, func() {
			for i := 0; i < 32; i++ {
				loc.Fence()
			}
		})
		collective("runtime.barrier_us", 256, func() {
			for i := 0; i < 256; i++ {
				loc.Barrier()
			}
		})
		var acc int64
		collective("runtime.allreduce_us", 256, func() {
			for i := 0; i < 256; i++ {
				acc += runtime.AllReduceSum(loc, 1)
			}
		})
		collective("runtime.broadcast_us", 256, func() {
			for i := 0; i < 256; i++ {
				acc += runtime.BroadcastT(loc, 0, int64(i))
			}
		})
		if driver {
			sink += acc
		}
	})

	out["runtime.execute_us.inproc"] = timeIt(1, func() {
		m.Execute(func(*runtime.Location) {})
	}) / 1e3
	cfg := inprocConfig(1)
	cfg.Transport = runtime.TCPLoopbackTransport
	tcp := runtime.NewMachine(2, cfg)
	out["runtime.execute_us.tcp"] = timeIt(1, func() {
		tcp.Execute(func(*runtime.Location) {})
	}) / 1e3
}

func probeTransport(out map[string]float64, r *rand.Rand) {
	vals := make([]int64, bulkChunk)
	for i := range vals {
		vals[i] = r.Int63n(1 << 40)
	}
	codec := transport.SliceCodec(transport.Int64Codec)
	var encoded []byte
	out["transport.codec_encode_ns"] = timeIt(len(vals), func() {
		b := transport.NewBuffer()
		codec.Encode(b, vals)
		encoded = b.Bytes()
	})
	out["transport.codec_decode_ns"] = timeIt(len(vals), func() {
		got := codec.Decode(transport.NewReader(encoded))
		sink += got[0]
	})

	// One aggregated batch as elem-async ships it: 16 descriptors, each a
	// registered operation with a small encoded argument.
	reqs := make([]transport.RequestDescriptor, 16)
	for i := range reqs {
		b := transport.NewBuffer()
		transport.Int64Codec.Encode(b, vals[i])
		transport.Int64Codec.Encode(b, vals[i+16])
		reqs[i] = transport.RequestDescriptor{Handle: 3, Kind: transport.KindAsync, Bytes: 16, Op: uint64(probeNoop), Arg: b.Bytes()}
	}
	hdr := transport.BatchHeader{Src: 0, Dst: 1, Seq: 7, PayloadBytes: 16 * 16}
	var frame []byte
	out["transport.frame_encode_ns"] = timeIt(64, func() {
		for i := 0; i < 64; i++ {
			frame = transport.EncodeBatch(hdr, reqs)
		}
	})
	out["transport.frame_decode_ns"] = timeIt(64, func() {
		for i := 0; i < 64; i++ {
			_, got, err := transport.DecodeBatch(frame)
			if err != nil {
				panic(err)
			}
			sink += int64(len(got))
		}
	})
	out["transport.frame_bytes_per_req"] = float64(len(frame)) / float64(len(reqs))

	// Reliable seq/ack over the synchronous in-process wire.
	rel := transport.NewReliable(transport.NewInproc(2), 2)
	var delivered atomic.Int64
	if err := rel.Start(func(int, int, []byte) { delivered.Add(1) }); err != nil {
		panic(err)
	}
	out["transport.reliable_send_ns"] = timeIt(256, func() {
		for i := 0; i < 256; i++ {
			rel.Send(0, 1, frame)
		}
	})
	rel.Drain()
	if err := rel.Close(); err != nil {
		panic(err)
	}

	// The loopback socket alone: echo round trip and one-way stream.
	tcp := transport.NewTCP(2)
	echo := make(chan struct{}, 1) // one round trip in flight at a time
	var streamed atomic.Int64
	streamDone := make(chan struct{}, 1) // signalled once per streamed repeat
	const streamFrames = 512
	var streaming atomic.Bool
	if err := tcp.Start(func(src, dst int, f []byte) {
		switch {
		case streaming.Load():
			if streamed.Add(1)%streamFrames == 0 {
				streamDone <- struct{}{}
			}
		case dst == 1:
			tcp.Send(1, 0, f)
		default:
			echo <- struct{}{}
		}
	}); err != nil {
		panic(err)
	}
	out["transport.tcp_rtt_us"] = timeIt(64, func() {
		for i := 0; i < 64; i++ {
			tcp.Send(0, 1, frame)
			<-echo
		}
	}) / 1e3
	streaming.Store(true)
	out["transport.tcp_stream_ns_per_frame"] = timeIt(streamFrames, func() {
		for i := 0; i < streamFrames; i++ {
			tcp.Send(0, 1, frame)
		}
		<-streamDone
	})
	tcp.Drain()
	if err := tcp.Close(); err != nil {
		panic(err)
	}
}

// probeContainerPaths times pArray.Get on an owned and on a remote index,
// the remote one over in-process delivery, over the wire protocol without a
// socket, and over loopback TCP, and derives the residuals: what core adds
// on top of partition + bContainer (+ the bare round trip), what the
// protocol adds on top of in-process delivery, what the socket adds on top
// of the protocol.
//
// The remote residual subtracts probe.urgent_roundtrip_ns, not the issue's
// runtime.sync_rmi_ns: pArray.Get is an urgent request plus a future, not a
// SyncRMI, and sync_rmi_ns is the mean of a loop where this is a median of
// single calls, so their difference mixed two code paths and two statistics
// and came out negative as often as not.
func probeContainerPaths(out map[string]float64, r *rand.Rand, seed int64) {
	local := make([]int64, probeCalls)
	remote := make([]int64, probeCalls)
	for i := range local {
		local[i] = r.Int63n(elemPerLoc)
		remote[i] = elemPerLoc + r.Int63n(elemPerLoc)
	}
	var localNs, urgentNs float64
	remoteUs := map[string]float64{}
	for _, tr := range []struct {
		name    string
		factory runtime.TransportFactory
	}{
		{"inproc", runtime.InprocTransport},
		{"wire", runtime.WireTransport},
		{"tcp", runtime.TCPLoopbackTransport},
	} {
		cfg := inprocConfig(seed)
		cfg.Transport = tr.factory
		m := runtime.NewMachine(2, cfg)
		m.Execute(func(loc *runtime.Location) {
			a := parray.New[int64](loc, 2*elemPerLoc)
			h := loc.RegisterObject(&struct{}{})
			loc.Barrier()
			if loc.ID() == 0 {
				if tr.name == "inproc" {
					localNs = timeIt(probeCalls, func() {
						for _, i := range local {
							sink += a.Get(i)
						}
					})
				}
				// Median of individually timed reads, like op_p50_us.
				for _, i := range remote[:64] {
					sink += a.Get(i)
				}
				// In process, each read is followed by the bare round trip it
				// is built from (an urgent request whose handler completes a
				// future the caller waits on), timed the same way on the same
				// machine at the same moment: the term the remote residual
				// subtracts.
				per := make([]float64, len(remote))
				bare := make([]float64, len(remote))
				for k, i := range remote {
					t := now()
					sink += a.Get(i)
					per[k] = float64(now() - t)
					if tr.name == "inproc" {
						t = now()
						splitNoop(loc, h).Get()
						bare[k] = float64(now() - t)
					}
				}
				remoteUs[tr.name] = median(per) / 1e3
				if tr.name == "inproc" {
					urgentNs = median(bare)
				}
			}
			loc.Barrier()
		})
	}
	out["probe.parray_get_local_ns"] = localNs
	out["probe.urgent_roundtrip_ns"] = urgentNs
	out["probe.parray_get_remote_us.inproc"] = remoteUs["inproc"]
	out["probe.parray_get_remote_us.wire"] = remoteUs["wire"]
	out["probe.parray_get_remote_us.tcp"] = remoteUs["tcp"]
	floor := out["bcontainer.array_get_ns"] + out["partition.balanced_find_ns"]
	out["core.invoke_local_overhead_ns"] = localNs - floor
	out["core.invoke_remote_overhead_ns"] = remoteUs["inproc"]*1e3 - out["probe.urgent_roundtrip_ns"] - floor
	out["transport.protocol_overhead_us"] = remoteUs["wire"] - remoteUs["inproc"]
	out["transport.socket_overhead_us"] = remoteUs["tcp"] - remoteUs["wire"]
}

// printProbes prints every probe, then the residuals with their terms.
func printProbes(w *bufio.Writer, p map[string]float64) {
	names := make([]string, 0, len(p))
	for n := range p {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(w, "\nprobes (median of %d repeats):\n", probeReps)
	for _, n := range names {
		fmt.Fprintf(w, "  %-44s %14.3f\n", n, p[n])
	}
	printResiduals(w, p)
}

// printResiduals prints the four residuals with the terms they were computed
// from.
func printResiduals(w *bufio.Writer, p map[string]float64) {
	floor := p["bcontainer.array_get_ns"] + p["partition.balanced_find_ns"]
	fmt.Fprintf(w, "\nresiduals:\n")
	fmt.Fprintf(w, "  core.invoke_local_overhead_ns  = local parray.Get %.1f - bcontainer.array_get %.1f - partition.balanced_find %.1f = %.1f ns\n",
		p["probe.parray_get_local_ns"], p["bcontainer.array_get_ns"], p["partition.balanced_find_ns"], p["core.invoke_local_overhead_ns"])
	fmt.Fprintf(w, "  core.invoke_remote_overhead_ns = remote parray.Get %.1f - urgent round trip %.1f - %.1f (the same two) = %.1f ns%s\n",
		p["probe.parray_get_remote_us.inproc"]*1e3, p["probe.urgent_roundtrip_ns"], floor, p["core.invoke_remote_overhead_ns"],
		negativeNote(p["core.invoke_remote_overhead_ns"]))
	fmt.Fprintf(w, "    (runtime.sync_rmi_ns, the closure SyncRMI as a loop mean, is %.1f ns: another code path, not a term)\n", p["runtime.sync_rmi_ns"])
	fmt.Fprintf(w, "  transport.protocol_overhead_us = read p50 over WireTransport %.2f - in-process %.2f = %.2f us\n",
		p["probe.parray_get_remote_us.wire"], p["probe.parray_get_remote_us.inproc"], p["transport.protocol_overhead_us"])
	fmt.Fprintf(w, "  transport.socket_overhead_us   = read p50 over TCP loopback %.2f - over WireTransport %.2f = %.2f us\n",
		p["probe.parray_get_remote_us.tcp"], p["probe.parray_get_remote_us.wire"], p["transport.socket_overhead_us"])
}

// negativeNote flags a residual that came out below zero: its terms are
// medians of separate loops, so a small true value can.
func negativeNote(v float64) string {
	if v < 0 {
		return "  (negative: smaller than the noise of its terms, read as 0)"
	}
	return ""
}
