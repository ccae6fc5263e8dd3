package main

import (
	"math/rand"

	"repro/internal/containers/parray"
	"repro/internal/containers/passoc"
	"repro/internal/containers/pgraph"
	"repro/internal/containers/plist"
	"repro/internal/containers/pvector"
	"repro/internal/partition"
	"repro/internal/runtime"
)

// The three single-driver workloads: location 0 issues remote element
// methods one after the other (a closed loop with one client) and the other
// locations only serve.  Every read is compared with a sequential mirror the
// driver keeps: with one writer, the relaxed consistency model admits exactly
// one value after a fence or a same-location read.

// Frozen phase constants.  They were sized once, at the commit that added
// the benchmark, so the phases of a round take roughly equal time there;
// they never adapt at run time.
const (
	elemPerLoc = 16384 // pArray elements per location
	hashKeys   = 32768 // pHashMap keys, machine-wide
	dirPerLoc  = 2048  // directory-resolved vertices / list elements per location

	// A round is about a quarter of a millisecond of work, so that it fits
	// inside one of the host's fast stays (harness.go, quietShare).  Operands
	// come from pools drawn once from the seed; round r takes the next slice
	// of each pool, wrapping around.
	syncKeyPool      = 1024 // elem-sync: keys drawn per kind
	syncReadsPerKind = 32   // elem-sync: blocking reads per kind and round
	syncKinds        = 5

	burstSize       = 64  // writes per burst, closed by OneSidedFence
	splitWindow     = 16  // split-phase reads issued, then harvested, per burst
	asyncBurstPool  = 128 // elem-async: bursts with slots of their own
	asyncBursts     = 8   // elem-async: bursts per round
	asyncStructPool = 64  // elem-async: structural operands drawn
	asyncStructOps  = 4   // elem-async: pVector insert+erase and edge add+delete pairs per round

	tcpKeyPool   = 192  // wire-tcp: keys drawn per kind
	tcpArrReads  = 3    // wire-tcp: blocking parray.Get per round
	tcpHashReads = 1    // wire-tcp: blocking HashMap.Find per round; fewer, so that the median read is a Get and not the gap between the two kinds
	tcpBurstPool = 16   // wire-tcp: bursts with slots of their own
	tcpBursts    = 1    // wire-tcp: write bursts per round
	bulkChunk    = 1024 // indices of one bulk call; wire-tcp runs one SetBulk+GetBulk pair per round

	syncLatencyStride = 8 // in-process, a blocking read is timed on every 8th call; over TCP, on every call
)

const (
	elemSyncOps  = syncKinds * syncReadsPerKind
	elemAsyncOps = asyncBursts*(burstSize+splitWindow) + 4*asyncStructOps
	wireTCPOps   = tcpArrReads + tcpHashReads + tcpBursts*burstSize + 2*bulkChunk
)

var (
	kArrGetRemote  = newKind("parray.Get/remote", "containers", "containers.parray.get_remote_ns", 1)
	kHashFindRem   = newKind("passoc.HashMap.Find/remote", "containers", "containers.passoc.find_remote_ns", 1)
	kVPropCached   = newKind("pgraph.VertexProperty/dir-cached", "containers", "containers.pgraph.vertex_property_cached_ns", 1)
	kVPropUncached = newKind("pgraph.VertexProperty/dir-uncached", "containers", "containers.pgraph.vertex_property_uncached_ns", 1)
	kListGetDir    = newKind("plist.Get/dir-remote", "containers", "containers.plist.get_dir_remote_ns", 1)

	kBurst       = newKind("write burst", "harness", "", 0)
	kArrSet      = newKind("parray.Set/remote", "containers", "containers.parray.set_issue_ns", 1)
	kArrApplySet = newKind("parray.ApplySet/remote", "containers", "containers.parray.applyset_issue_ns", 1)
	kHashInsert  = newKind("passoc.HashMap.Insert/remote", "containers", "containers.passoc.insert_issue_ns", 1)
	kArrGetSplit = newKind("parray.GetSplit/remote", "containers", "containers.parray.getsplit_issue_ns", 1)
	kFutureGet   = newKind("FutureOf.Get", "runtime", "", 0)
	kVecInsert   = newKind("pvector.Insert/local-block", "containers", "containers.pvector.insert_local_ns", 1)
	kVecErase    = newKind("pvector.Erase/local-block", "containers", "", 0)
	kAddEdge     = newKind("pgraph.AddEdgeAsync/remote", "containers", "containers.pgraph.add_edge_issue_ns", 1)
	kDelEdge     = newKind("pgraph.DeleteEdge/remote", "containers", "", 0)

	kArrSetBulk = newKind("parray.SetBulk/remote", "containers", "containers.parray.setbulk_ns_per_elem", 1)
	kArrGetBulk = newKind("parray.GetBulk/remote", "containers", "containers.parray.getbulk_ns_per_elem", 1)
)

// elemValue is the value every container is populated with for key i.
func elemValue(i int64) int64 { return (i*2654435761 + 12345) % 1000003 }

// readLoop issues one blocking read per key, compares each result with the
// mirror and returns the number that disagreed.  Every stride-th call is
// timed, so the clock does not tax the throughput it measures.
func readLoop[K any](rec *recorder, k kind, stride int, keys []K, want []int64, get func(K) int64) int64 {
	var bad int64
	for i, key := range keys {
		sampled := i%stride == 0
		var t int64
		if sampled {
			t = now()
		}
		sp := rec.begin(k, 1)
		v := get(key)
		rec.end(sp)
		if sampled {
			rec.sample(now() - t)
		}
		if v != want[i] {
			bad++
		}
	}
	return bad
}

// pick draws n keys from pool with the seed's generator.
func pick[K any](r *rand.Rand, pool []K, n int) []K {
	out := make([]K, n)
	for i := range out {
		out[i] = pool[r.Intn(len(pool))]
	}
	return out
}

// window returns the n operands round r takes from a pool: the next slice,
// wrapping around (n divides len(pool)).
func window[T any](pool []T, r, n int) []T {
	at := r * n % len(pool)
	return pool[at : at+n]
}

// indexRange lists the indices lo..hi-1.
func indexRange(lo, hi int64) []int64 {
	out := make([]int64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// ---------------------------------------------------------------- elem-sync

type elemSync struct {
	e *env

	arr     *parray.Array[int64]
	hm      *passoc.HashMap[int64, int64]
	gCached *pgraph.Graph[int64, int8]
	gPlain  *pgraph.Graph[int64, int8]
	lst     *plist.List[int64]

	arrIdx, hashKey, vdCached, vdPlain []int64
	gids                               []plist.GID
	// want* are the mirror values of the keys above, in order.
	wantArr, wantHash, wantCached, wantPlain, wantList []int64
}

// populateHash inserts this location's share of the keys 0..n-1 in bulk.
func populateHash(loc *runtime.Location, hm *passoc.HashMap[int64, int64], n int64) {
	var keys, vals []int64
	for k := int64(loc.ID()); k < n; k += int64(loc.NumLocations()) {
		keys = append(keys, k)
		vals = append(vals, elemValue(k))
	}
	hm.InsertBulk(keys, vals)
	loc.Fence()
}

// remoteHashKeys lists the keys location 0 does not own.
func remoteHashKeys(hm *passoc.HashMap[int64, int64]) []int64 {
	var out []int64
	for k := int64(0); k < hashKeys; k++ {
		if hm.Lookup(k) != 0 {
			out = append(out, k)
		}
	}
	return out
}

// dirGraph builds a directory-strategy graph with dirPerLoc vertices per
// location and returns, on location 0, the triangle descriptors: vertices
// whose directory home is neither the reader nor the owner, so an uncached
// read goes reader -> home -> owner.
func dirGraph(loc *runtime.Location, cached bool) (*pgraph.Graph[int64, int8], []int64) {
	g := pgraph.New[int64, int8](loc, 0,
		pgraph.WithStrategy(pgraph.DynamicDirectory), pgraph.WithDirectoryCache(cached))
	mine := make([]int64, dirPerLoc)
	for i := range mine {
		mine[i] = g.AddVertex(0)
	}
	// The property is a function of the descriptor, so the mirror needs no
	// table.
	g.UpdateLocalVertices(func(vd int64, _ int64) int64 { return elemValue(vd) })
	loc.Fence()
	all := runtime.AllGatherT(loc, mine)
	var tri []int64
	if loc.ID() == 0 {
		for owner := 1; owner < loc.NumLocations(); owner++ {
			for _, vd := range all[owner] {
				if h := g.Directory().HomeOf(vd); h != 0 && h != owner {
					tri = append(tri, vd)
				}
			}
		}
	}
	return g, tri
}

func buildElemSync(loc *runtime.Location, e *env) instance {
	w := &elemSync{e: e}
	p := loc.NumLocations()
	w.arr = parray.New[int64](loc, int64(p)*elemPerLoc)
	w.arr.UpdateLocal(func(gid int64, _ int64) int64 { return elemValue(gid) })
	w.hm = passoc.NewHashMap[int64, int64](loc, partition.Int64Hash)
	populateHash(loc, w.hm, hashKeys)
	var triC, triP []int64
	w.gCached, triC = dirGraph(loc, true)
	w.gPlain, triP = dirGraph(loc, false)
	w.lst = plist.New[int64](loc, plist.WithDirectory())
	type born struct {
		G plist.GID
		V int64
	}
	mine := make([]born, dirPerLoc)
	for i := range mine {
		v := elemValue(int64(loc.ID())*dirPerLoc + int64(i))
		mine[i] = born{w.lst.PushAnywhere(v), v}
	}
	loc.Fence()
	all := runtime.AllGatherT(loc, mine)
	if loc.ID() == 0 {
		r := e.rng(0)
		w.arrIdx = pick(r, indexRange(elemPerLoc, int64(p)*elemPerLoc), syncKeyPool)
		w.hashKey = pick(r, remoteHashKeys(w.hm), syncKeyPool)
		w.vdCached = pick(r, triC, syncKeyPool)
		w.vdPlain = pick(r, triP, syncKeyPool)
		var remote []born
		for owner := 1; owner < p; owner++ {
			remote = append(remote, all[owner]...)
		}
		for _, b := range pick(r, remote, syncKeyPool) {
			w.gids = append(w.gids, b.G)
			w.wantList = append(w.wantList, b.V)
		}
		for i := 0; i < syncKeyPool; i++ {
			w.wantArr = append(w.wantArr, elemValue(w.arrIdx[i]))
			w.wantHash = append(w.wantHash, elemValue(w.hashKey[i]))
			w.wantCached = append(w.wantCached, elemValue(w.vdCached[i]))
			w.wantPlain = append(w.wantPlain, elemValue(w.vdPlain[i]))
		}
		// The warm-up rounds touch only the first slices of the pools: read
		// every directory-resolved key once here, so that every measured round
		// finds the resolution caches warm and the traffic per read repeats
		// exactly.
		for i := range w.vdCached {
			w.propCached(w.vdCached[i])
			w.lst.Get(w.gids[i])
		}
	}
	loc.Fence()
	return w
}

func (w *elemSync) round(loc *runtime.Location, r int, rec *recorder) {
	const n, stride = syncReadsPerKind, syncLatencyStride
	var bad int64
	bad += readLoop(rec, kArrGetRemote, stride, window(w.arrIdx, r, n), window(w.wantArr, r, n), w.arr.Get)
	bad += readLoop(rec, kHashFindRem, stride, window(w.hashKey, r, n), window(w.wantHash, r, n), w.find)
	// Round 2 is a warm-up round with a warm cache: with one driver nothing
	// else is in flight, so the counter delta belongs to these reads alone.
	var before runtime.Stats
	if r == 2 {
		before = loc.Machine().Stats()
	}
	bad += readLoop(rec, kVPropCached, stride, window(w.vdCached, r, n), window(w.wantCached, r, n), w.propCached)
	if r == 2 {
		d := loc.Machine().Stats().Sub(before)
		w.e.setCounter("dir.rmis_per_read", float64(d.RMIsSent)/n)
	}
	bad += readLoop(rec, kVPropUncached, stride, window(w.vdPlain, r, n), window(w.wantPlain, r, n), w.propPlain)
	bad += readLoop(rec, kListGetDir, stride, window(w.gids, r, n), window(w.wantList, r, n), w.lst.Get)
	w.e.checkN(elemSyncOps, bad, "elem-sync read")
}

func (w *elemSync) find(k int64) int64 { return findOr(w.hm, k) }

func (w *elemSync) propCached(vd int64) int64 { return propOr(w.gCached, vd) }

func (w *elemSync) propPlain(vd int64) int64 { return propOr(w.gPlain, vd) }

// findOr and propOr return -1, which no element holds, where there is nothing
// to read.
func findOr(hm *passoc.HashMap[int64, int64], k int64) int64 {
	if v, ok := hm.Find(k); ok {
		return v
	}
	return -1
}

func propOr(g *pgraph.Graph[int64, int8], vd int64) int64 {
	if v, ok := g.VertexProperty(vd); ok {
		return v
	}
	return -1
}

// finish reads the directory counters the per-layer report needs.
func (w *elemSync) finish(loc *runtime.Location) {
	if loc.ID() != 0 {
		return
	}
	hits, misses, _ := w.gCached.Directory().CacheStats()
	w.e.setCounter("dir.hits", float64(hits))
	w.e.setCounter("dir.misses", float64(misses))
}

// ---------------------------------------------------------------- elem-async

// writer is the write-burst machinery elem-async and wire-tcp share: remote
// pArray writes (1 in 8 an ApplySet closure, the rendezvous path on a wire)
// interleaved with remote pHashMap inserts, mirrored on the driver.
type writer struct {
	arr *parray.Array[int64]
	hm  *passoc.HashMap[int64, int64]
	// wIdx / wKey name the element each slot of each burst writes; a burst
	// writes the same slots every time, with a value that carries the round.
	wIdx, wKey []int64
	mirror     []int64         // pArray mirror, by index
	hashMirror map[int64]int64 // last value inserted per key
}

func newWriter(r *rand.Rand, arr *parray.Array[int64], hm *passoc.HashMap[int64, int64], lo, hi int64, bursts int) *writer {
	w := &writer{arr: arr, hm: hm, hashMirror: map[int64]int64{}}
	w.wIdx = pick(r, indexRange(lo, hi), bursts*burstSize)
	w.wKey = pick(r, remoteHashKeys(hm), bursts*burstSize)
	w.mirror = make([]int64, arr.Size())
	for i := range w.mirror {
		w.mirror[i] = elemValue(int64(i))
	}
	return w
}

// burst issues burst b with values that carry the round r and closes it with
// a one-sided fence; it returns the time from first issue to fence return.
func (w *writer) burst(loc *runtime.Location, r, b int, rec *recorder) int64 {
	t := now()
	sp := rec.begin(kBurst, 1)
	for j := 0; j < burstSize; j++ {
		slot := b*burstSize + j
		switch {
		case j%8 == 7:
			i, d := w.wIdx[slot], int64(r%7+1)
			c := rec.begin(kArrApplySet, 1)
			w.arr.ApplySet(i, func(x int64) int64 { return x + d })
			rec.end(c)
			w.mirror[i] += d
		case j%2 == 0:
			i, v := w.wIdx[slot], int64(slot)+int64(r)<<20
			c := rec.begin(kArrSet, 1)
			w.arr.Set(i, v)
			rec.end(c)
			w.mirror[i] = v
		default:
			k, v := w.wKey[slot], int64(slot)+int64(r)<<20
			c := rec.begin(kHashInsert, 1)
			w.hm.Insert(k, v)
			rec.end(c)
			w.hashMirror[k] = v
		}
	}
	f := rec.begin(kOSF, 1)
	loc.OneSidedFence()
	rec.end(f)
	rec.end(sp)
	return now() - t
}

// verifyHash reads back every key the bursts inserted (blocking, after the
// last round) and compares it with the mirror.
func (w *writer) verifyHash(e *env) {
	var bad int64
	for k, want := range w.hashMirror {
		if v, ok := w.hm.Find(k); !ok || v != want {
			bad++
		}
	}
	e.checkN(int64(len(w.hashMirror)), bad, "pHashMap read-back")
}

type elemAsync struct {
	e   *env
	w   *writer
	vec *pvector.Vector[int64]
	g   *pgraph.Graph[int64, int8]

	vecIdx   []int64 // insertion points inside location 0's block
	edgeSrc  []int64 // remote sources
	futs     [splitWindow]*runtime.FutureOf[int64]
	splitIdx [splitWindow]int64
}

func buildElemAsync(loc *runtime.Location, e *env) instance {
	w := &elemAsync{e: e}
	p := int64(loc.NumLocations())
	arr := parray.New[int64](loc, p*elemPerLoc)
	arr.UpdateLocal(func(gid int64, _ int64) int64 { return elemValue(gid) })
	hm := passoc.NewHashMap[int64, int64](loc, partition.Int64Hash)
	populateHash(loc, hm, hashKeys)
	w.vec = pvector.New[int64](loc, p*elemPerLoc)
	w.vec.LocalUpdate(func(gid int64, _ int64) int64 { return elemValue(gid) })
	w.g = pgraph.New[int64, int8](loc, p*dirPerLoc)
	loc.Fence()
	if loc.ID() == 0 {
		r := e.rng(0)
		w.w = newWriter(r, arr, hm, elemPerLoc, p*elemPerLoc, asyncBurstPool)
		// Keep clear of the block boundary: an insert grows the block by one
		// until its erase lands.
		w.vecIdx = pick(r, indexRange(64, elemPerLoc-64), asyncStructPool)
		w.edgeSrc = pick(r, indexRange(dirPerLoc, p*dirPerLoc), asyncStructPool)
	}
	loc.Fence()
	return w
}

func (w *elemAsync) round(loc *runtime.Location, r int, rec *recorder) {
	var bad int64
	for k := 0; k < asyncBursts; k++ {
		b := (r*asyncBursts + k) % asyncBurstPool
		rec.sample(w.w.burst(loc, r, b, rec))
		// Split-phase window over elements this burst wrote: issue all, then
		// harvest all.
		for j := 0; j < splitWindow; j++ {
			// Slot 4j of the burst was a Set; every fourth read takes an
			// ApplySet slot (8k+7) instead, so closures are verified too.
			slot := b*burstSize + 4*j
			if j%4 == 3 {
				slot = b*burstSize + 8*(j/4) + 7
			}
			w.splitIdx[j] = w.w.wIdx[slot]
			c := rec.begin(kArrGetSplit, 1)
			w.futs[j] = w.w.arr.GetSplit(w.splitIdx[j])
			rec.end(c)
		}
		for j := 0; j < splitWindow; j++ {
			c := rec.begin(kFutureGet, 1)
			v := w.futs[j].Get()
			rec.end(c)
			if v != w.w.mirror[w.splitIdx[j]] {
				bad++
			}
		}
	}
	// Structural phase: pVector insert+erase inside the driver's own block
	// (element shift plus the metadata broadcast to the other replica) and
	// remote edge add+delete.
	vecIdx, edgeSrc := window(w.vecIdx, r, asyncStructOps), window(w.edgeSrc, r, asyncStructOps)
	for k := 0; k < asyncStructOps; k++ {
		i := vecIdx[k]
		c := rec.begin(kVecInsert, 1)
		w.vec.Insert(i, int64(r))
		rec.end(c)
		c = rec.begin(kVecErase, 1)
		w.vec.Erase(i)
		rec.end(c)
		src := edgeSrc[k]
		c = rec.begin(kAddEdge, 1)
		w.g.AddEdgeAsync(src, src-1, 0)
		rec.end(c)
		c = rec.begin(kDelEdge, 1)
		w.g.DeleteEdge(src, src-1)
		rec.end(c)
	}
	f := rec.begin(kOSF, 1)
	loc.OneSidedFence()
	rec.end(f)
	// The insert+erase pairs must have left the block as it was.
	i := vecIdx[0]
	if w.vec.Get(i) != elemValue(i) {
		bad++
	}
	w.e.checkN(asyncBursts*splitWindow+1, bad, "elem-async read")
}

func (w *elemAsync) finish(loc *runtime.Location) {
	if loc.ID() == 0 {
		w.w.verifyHash(w.e)
		w.e.check(w.g.OutDegree(w.edgeSrc[0]) == 0, "edge add+delete left out-degree %d", w.g.OutDegree(w.edgeSrc[0]))
	}
}

// ---------------------------------------------------------------- wire-tcp

// wireTCP runs a shortened elem-sync direct-read phase, an elem-async
// write-burst phase and a bulk phase over real loopback sockets.  The three
// phases use disjoint thirds of location 1's block, so the mirror of one is
// not disturbed by another.
type wireTCP struct {
	e *env
	w *writer

	arrIdx, hashKey   []int64
	wantArr, wantHash []int64
	bulkIdx           []int64
	bulkVals          [2][]int64 // alternate by round parity: SetBulk retains its slices until the fence
}

func buildWireTCP(loc *runtime.Location, e *env) instance {
	w := &wireTCP{e: e}
	arr := parray.New[int64](loc, 2*elemPerLoc)
	arr.UpdateLocal(func(gid int64, _ int64) int64 { return elemValue(gid) })
	hm := passoc.NewHashMap[int64, int64](loc, partition.Int64Hash)
	populateHash(loc, hm, hashKeys)
	if loc.ID() == 0 {
		r := e.rng(0)
		const third = elemPerLoc / 3
		w.arrIdx = pick(r, indexRange(elemPerLoc, elemPerLoc+third), tcpKeyPool)
		w.w = newWriter(r, arr, hm, elemPerLoc+third, elemPerLoc+2*third, tcpBurstPool)
		// Reads and inserts must not share keys: the read mirror is static.
		written := map[int64]bool{}
		for _, k := range w.w.wKey {
			written[k] = true
		}
		var readable []int64
		for _, k := range remoteHashKeys(hm) {
			if !written[k] {
				readable = append(readable, k)
			}
		}
		w.hashKey = pick(r, readable, tcpKeyPool)
		for i := 0; i < tcpKeyPool; i++ {
			w.wantArr = append(w.wantArr, elemValue(w.arrIdx[i]))
			w.wantHash = append(w.wantHash, elemValue(w.hashKey[i]))
		}
		w.bulkIdx = indexRange(elemPerLoc+2*third, elemPerLoc+2*third+bulkChunk)
		w.bulkVals[0] = make([]int64, bulkChunk)
		w.bulkVals[1] = make([]int64, bulkChunk)
	}
	loc.Fence()
	return w
}

func (w *wireTCP) round(loc *runtime.Location, r int, rec *recorder) {
	var bad int64
	bad += readLoop(rec, kArrGetRemote, 1, window(w.arrIdx, r, tcpArrReads), window(w.wantArr, r, tcpArrReads), w.w.arr.Get)
	bad += readLoop(rec, kHashFindRem, 1, window(w.hashKey, r, tcpHashReads), window(w.wantHash, r, tcpHashReads), func(k int64) int64 { return findOr(w.w.hm, k) })
	for k := 0; k < tcpBursts; k++ {
		w.w.burst(loc, r, (r*tcpBursts+k)%tcpBurstPool, rec)
	}
	vals := w.bulkVals[r%2]
	for i := range vals {
		vals[i] = int64(i) + int64(r)<<20
	}
	c := rec.begin(kArrSetBulk, bulkChunk)
	w.w.arr.SetBulk(w.bulkIdx, vals)
	rec.end(c)
	c = rec.begin(kArrGetBulk, bulkChunk)
	got := w.w.arr.GetBulk(w.bulkIdx)
	rec.end(c)
	for i, v := range got {
		if v != vals[i] {
			bad++
		}
	}
	w.e.checkN(tcpArrReads+tcpHashReads+bulkChunk, bad, "wire-tcp read")
}

func (w *wireTCP) finish(loc *runtime.Location) {
	if loc.ID() != 0 {
		return
	}
	w.w.verifyHash(w.e)
	// The burst writes are only ever read back here: every written index
	// against the mirror.
	var bad int64
	for _, i := range w.w.wIdx {
		if w.w.arr.Get(i) != w.w.mirror[i] {
			bad++
		}
	}
	w.e.checkN(int64(len(w.w.wIdx)), bad, "wire-tcp write read-back")
}
