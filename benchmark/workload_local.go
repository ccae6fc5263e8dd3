package main

import (
	"repro/internal/containers/parray"
	"repro/internal/containers/passoc"
	"repro/internal/containers/plist"
	"repro/internal/containers/pmatrix"
	"repro/internal/containers/pvector"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/views"
	"repro/internal/workload"
)

// elem-local: location 0 runs element methods on elements it owns, through
// the container interface.  No RMI is sent, so the runtime and the transport
// do no work here: a change to them predicts no change, while a change to
// core's resolve -> is-local -> lock-bracket -> bContainer forwarding moves
// every number.
//
// Deviation from the issue text, recorded in the README: one location drives,
// not both.  The machine runs on one thread (main.go), where a second driver
// would only take turns with the first; location 1 holds its share of every
// container and waits at the closing barrier.
//
// Deviation from the issue text, recorded in the README: the dynamic mix runs
// on pList only.  pVector.Insert/Erase broadcast a metadata update to every
// other location even when the element is local, which would contradict the
// workload's defining property (zero messages); they are measured on
// elem-async instead.

const (
	localKinds    = 8
	localPerKind  = 128
	localBlockOps = localKinds * localPerKind // 1024: the latency unit
	localBlocks   = 16                        // blocks with operands of their own, per location
	localPerRound = 2                         // blocks a round runs: the next ones, wrapping around

	// The data is small on purpose: about half a megabyte per location,
	// operands and mirrors included, so it stays in the core's own cache.  At
	// 16 384 elements and 64 operand blocks (3 MB per location) the numbers
	// followed what the host's other tenants did to the shared cache: over
	// eight alternating runs the median round spread 20 % against 4 % at this
	// size.
	localPerLoc     = 2048 // elements per location of the 1-D containers
	localHashKeys   = 4096 // machine-wide
	localMatrixSide = 64
	localListSeed   = 128 // pList elements that exist before the mix starts
)

const elemLocalOps = localPerRound * localBlockOps

var (
	kArrGetLocal  = newKind("parray.Get/local", "containers", "containers.parray.get_local_ns", 1)
	kArrSetLocal  = newKind("parray.Set/local", "containers", "", 0)
	kVecGetLocal  = newKind("pvector.Get/local", "containers", "containers.pvector.get_local_ns", 1)
	kVecSetLocal  = newKind("pvector.Set/local", "containers", "", 0)
	kMatGetLocal  = newKind("pmatrix.Get/local", "containers", "containers.pmatrix.get_local_ns", 1)
	kMatSetLocal  = newKind("pmatrix.Set/local", "containers", "", 0)
	kHashFindLoc  = newKind("passoc.HashMap.Find/local", "containers", "containers.passoc.find_local_ns", 1)
	kHashInsLoc   = newKind("passoc.HashMap.Insert/local", "containers", "", 0)
	kViewGet      = newKind("views.Balanced.Get/local", "views", "views.balanced_get_ns", 1)
	kViewSet      = newKind("views.Balanced.Set/local", "views", "", 0)
	kListGetLoc   = newKind("plist.Get/local", "containers", "", 0)
	kListSetLoc   = newKind("plist.Set/local", "containers", "", 0)
	kListInsLoc   = newKind("plist.Insert/local", "containers", "containers.plist.insert_local_ns", 1)
	kListEraseLoc = newKind("plist.Erase/local", "containers", "containers.plist.erase_local_ns", 1)
	kLocalBlock   = newKind("block of 1024 local ops", "harness", "", 0)
)

type listOp struct {
	kind workload.OpKind
	pick uint32 // operand: live[pick % len(live)]
}

type elemLocal struct {
	e *env

	arr  *parray.Array[int64]
	vec  *pvector.Vector[int64]
	mat  *pmatrix.Matrix[int64]
	hm   *passoc.HashMap[int64, int64]
	view views.Balanced[int64]
	lst  *plist.List[int64]

	// Operands, one per op slot of a round (localBlocks*localPerKind each, or
	// half that where a kind splits into gets and sets).
	arrGet, arrSet, vecIdx, viewIdx, hashKey []int64
	matRow, matCol                           []int64
	listOps                                  []listOp
	listReads                                [localBlocks]int64 // reads among each block's listOps: what the oracle compares

	// Mirrors.  lo is the first owned index of the 1-D containers.
	lo                               int64
	arrMirror, vecMirror, viewMirror []int64
	matMirror                        []int64 // row-major over the owned block
	matRow0, matCol0, matCols        int64
	hashMirror                       map[int64]int64
	live                             []plist.GID
	liveVal                          []int64
}

// balanceMix repairs one block of the operation stream so it returns the
// list to the state it started from: a delete with nothing to delete and an
// insert nothing deletes both become reads.  Every block then starts from
// the same list, so counts per operation repeat exactly.
func balanceMix(ops []listOp) {
	depth := 0
	for i := range ops {
		switch ops[i].kind {
		case workload.OpInsert:
			depth++
		case workload.OpDelete:
			if depth == 0 {
				ops[i].kind = workload.OpRead
			} else {
				depth--
			}
		}
	}
	pendingDeletes := 0
	for i := len(ops) - 1; i >= 0; i-- {
		switch ops[i].kind {
		case workload.OpDelete:
			pendingDeletes++
		case workload.OpInsert:
			if pendingDeletes == 0 {
				ops[i].kind = workload.OpRead
			} else {
				pendingDeletes--
			}
		}
	}
}

func buildElemLocal(loc *runtime.Location, e *env) instance {
	w := &elemLocal{e: e, hashMirror: map[int64]int64{}}
	id := int64(loc.ID())
	n := int64(loc.NumLocations()) * localPerLoc
	w.lo = id * localPerLoc
	fill := func(gid int64, _ int64) int64 { return elemValue(gid) }

	w.arr = parray.New[int64](loc, n)
	w.arr.UpdateLocal(fill)
	w.vec = pvector.New[int64](loc, n)
	w.vec.LocalUpdate(fill)
	backing := parray.New[int64](loc, n)
	backing.UpdateLocal(fill)
	w.view = views.NewBalanced[int64](views.NewArrayNative(backing))
	w.mat = pmatrix.New[int64](loc, localMatrixSide, localMatrixSide)
	w.hm = passoc.NewHashMap[int64, int64](loc, partition.Int64Hash)
	populateHash(loc, w.hm, localHashKeys)
	w.lst = plist.New[int64](loc)
	for i := int64(0); i < localListSeed; i++ {
		v := elemValue(id*localListSeed + i)
		w.live = append(w.live, w.lst.PushAnywhere(v))
		w.liveVal = append(w.liveVal, v)
	}

	for _, m := range []*[]int64{&w.arrMirror, &w.vecMirror, &w.viewMirror} {
		*m = make([]int64, localPerLoc)
		for i := range *m {
			(*m)[i] = elemValue(w.lo + int64(i))
		}
	}
	rows, cols := w.mat.LocalBlocks()
	w.matRow0, w.matCol0, w.matCols = rows[0].Lo, cols[0].Lo, cols[0].Size()
	w.matMirror = make([]int64, rows[0].Size()*w.matCols)

	r := e.rng(loc.ID())
	owned := indexRange(w.lo, w.lo+localPerLoc)
	slots := localBlocks * localPerKind
	w.arrGet, w.arrSet = pick(r, owned, slots), pick(r, owned, slots)
	w.vecIdx, w.viewIdx = pick(r, owned, slots/2), pick(r, owned, slots/2)
	for i := 0; i < slots/2; i++ {
		w.matRow = append(w.matRow, rows[0].Lo+r.Int63n(rows[0].Size()))
		w.matCol = append(w.matCol, cols[0].Lo+r.Int63n(cols[0].Size()))
	}
	var mine []int64
	for k := int64(0); k < localHashKeys; k++ {
		if w.hm.Lookup(k) == loc.ID() {
			mine = append(mine, k)
			w.hashMirror[k] = elemValue(k)
		}
	}
	w.hashKey = pick(r, mine, slots)
	stream := workload.OpStream(loc, slots, workload.DefaultMix())
	w.listOps = make([]listOp, slots)
	for i, k := range stream {
		w.listOps[i] = listOp{kind: k, pick: r.Uint32()}
	}
	for b := 0; b < localBlocks; b++ {
		balanceMix(w.listOps[b*localPerKind : (b+1)*localPerKind])
	}
	for i, op := range w.listOps {
		if op.kind == workload.OpRead {
			w.listReads[i/localPerKind]++
		}
	}
	loc.Fence()
	return w
}

func (w *elemLocal) round(_ *runtime.Location, r int, rec *recorder) {
	var bad, reads int64
	stamp := int64(r) << 24
	const half = localPerKind / 2
	for n := 0; n < localPerRound; n++ {
		b := (r*localPerRound + n) % localBlocks
		reads += 2*localPerKind + 3*half + w.listReads[b]
		t := now()
		blk := rec.begin(kLocalBlock, 1)
		full := b * localPerKind
		part := b * half

		sp := rec.begin(kArrGetLocal, localPerKind)
		for _, i := range w.arrGet[full : full+localPerKind] {
			if w.arr.Get(i) != w.arrMirror[i-w.lo] {
				bad++
			}
		}
		rec.end(sp)
		sp = rec.begin(kArrSetLocal, localPerKind)
		for k, i := range w.arrSet[full : full+localPerKind] {
			v := stamp + int64(k)
			w.arr.Set(i, v)
			w.arrMirror[i-w.lo] = v
		}
		rec.end(sp)

		sp = rec.begin(kVecGetLocal, half)
		for _, i := range w.vecIdx[part : part+half] {
			if w.vec.Get(i) != w.vecMirror[i-w.lo] {
				bad++
			}
		}
		rec.end(sp)
		sp = rec.begin(kVecSetLocal, half)
		for k, i := range w.vecIdx[part : part+half] {
			v := stamp + int64(k)
			w.vec.Set(i, v)
			w.vecMirror[i-w.lo] = v
		}
		rec.end(sp)

		sp = rec.begin(kMatGetLocal, half)
		for k := part; k < part+half; k++ {
			row, col := w.matRow[k], w.matCol[k]
			if w.mat.Get(row, col) != w.matMirror[(row-w.matRow0)*w.matCols+col-w.matCol0] {
				bad++
			}
		}
		rec.end(sp)
		sp = rec.begin(kMatSetLocal, half)
		for k := part; k < part+half; k++ {
			row, col := w.matRow[k], w.matCol[k]
			v := stamp + int64(k)
			w.mat.Set(row, col, v)
			w.matMirror[(row-w.matRow0)*w.matCols+col-w.matCol0] = v
		}
		rec.end(sp)

		sp = rec.begin(kHashFindLoc, localPerKind)
		for _, k := range w.hashKey[full : full+localPerKind] {
			if v, ok := w.hm.Find(k); !ok || v != w.hashMirror[k] {
				bad++
			}
		}
		rec.end(sp)
		sp = rec.begin(kHashInsLoc, localPerKind)
		for j, k := range w.hashKey[full : full+localPerKind] {
			v := stamp + int64(j)
			w.hm.Insert(k, v)
			w.hashMirror[k] = v
		}
		rec.end(sp)

		sp = rec.begin(kViewGet, half)
		for _, i := range w.viewIdx[part : part+half] {
			if w.view.Get(i) != w.viewMirror[i-w.lo] {
				bad++
			}
		}
		rec.end(sp)
		sp = rec.begin(kViewSet, half)
		for k, i := range w.viewIdx[part : part+half] {
			v := stamp + int64(k)
			w.view.Set(i, v)
			w.viewMirror[i-w.lo] = v
		}
		rec.end(sp)

		for j, op := range w.listOps[full : full+localPerKind] {
			at := int(op.pick % uint32(len(w.live)))
			switch op.kind {
			case workload.OpRead:
				sp = rec.begin(kListGetLoc, 1)
				v := w.lst.Get(w.live[at])
				rec.end(sp)
				if v != w.liveVal[at] {
					bad++
				}
			case workload.OpWrite:
				v := stamp + int64(j)
				sp = rec.begin(kListSetLoc, 1)
				w.lst.Set(w.live[at], v)
				rec.end(sp)
				w.liveVal[at] = v
			case workload.OpInsert:
				v := stamp + int64(j)
				sp = rec.begin(kListInsLoc, 1)
				g := w.lst.Insert(w.live[at], v)
				rec.end(sp)
				w.live = append(w.live, g)
				w.liveVal = append(w.liveVal, v)
			case workload.OpDelete:
				last := len(w.live) - 1
				sp = rec.begin(kListEraseLoc, 1)
				w.lst.Erase(w.live[last])
				rec.end(sp)
				w.live, w.liveVal = w.live[:last], w.liveVal[:last]
			}
		}
		rec.end(blk)
		rec.sample(now() - t)
	}
	// Reads verified: every get, find and list read of the round.
	w.e.checkN(reads, bad, "elem-local read")
}

// finish checks what the reads cannot: the mix left the list as it found it.
func (w *elemLocal) finish(loc *runtime.Location) {
	if loc.ID() != 0 {
		return
	}
	w.e.check(len(w.live) == localListSeed && w.lst.LocalSize() == localListSeed,
		"location %d: pList holds %d elements after the mix, want %d", loc.ID(), w.lst.LocalSize(), localListSeed)
}
