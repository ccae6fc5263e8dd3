package repro

import (
	"fmt"
	"testing"

	"repro/internal/bcontainer"
	"repro/internal/containers/parray"
	"repro/internal/containers/passoc"
	"repro/internal/containers/pgraph"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// The registered element paths take whatever codec the element type has: a
// type with a typed wire codec crosses a wire as bytes, a type without one
// crosses by reference through the rendezvous — same handlers, same pooled
// records, same counters.  elemProgram drives those paths at the element
// types the caller picks; the test runs it at int64 everywhere (by value)
// and at codec-less types (by reference) over every single-process transport.

type point struct{ X, Y int64 }       // no typed codec
type dirKey struct{ Shard, ID int32 } // no typed codec

const (
	elemN     = 90
	elemLocs  = 3
	bulkShift = 1000
)

// elemProgram is SPMD: location 0 writes a pArray, a pHashMap, a static
// pGraph's edges and a Directory through their registered operations, then
// every location reads everything back.  It uses no closure-carrying method,
// so any rendezvous fallback it causes is a by-reference operation's.
func elemProgram[V comparable, G comparable, EP comparable](
	t *testing.T, loc *runtime.Location,
	val func(i int64) V, gid func(i int64) G, hash func(G) uint64, prop func(i int64) EP,
) {
	self, p := loc.ID(), loc.NumLocations()
	pa := parray.New[V](loc, elemN)
	hm := passoc.NewHashMap[string, V](loc, partition.StringHash)
	g := pgraph.New[int64, EP](loc, elemN)
	dir := core.NewDirectory(loc, core.DirectoryConfig[G]{Hash: hash})
	loc.Barrier()
	key := func(i int64) string { return fmt.Sprintf("k%03d", i) }
	owner := func(i int64) partition.BCID { return partition.BCID(i % int64(p)) }

	if self == 0 {
		half := make([]int64, 0, elemN/2)
		halfVals := make([]V, 0, elemN/2)
		for i := int64(0); i < elemN; i++ {
			pa.Set(i, val(i))
			hm.Insert(key(i), val(i))
			g.AddEdgeAsync(i, (i+1)%elemN, prop(i))
			dir.Publish(gid(i), owner(i+1))
			if i%2 == 1 {
				half = append(half, i)
				halfVals = append(halfVals, val(i+bulkShift))
			}
		}
		pa.SetBulk(half, halfVals)
		var all []G
		for i := int64(0); i < elemN; i++ {
			all = append(all, gid(i+bulkShift))
		}
		dir.PublishBulk(all, owner(0))
		// One update only: its home broadcasts the epoch bump from a handler,
		// and several would batch by timing (message counts must stay
		// deterministic for the cross-transport comparison).
		dir.Update(gid(1), owner(0))
		dir.Unpublish(gid(bulkShift))
	}
	loc.Fence()

	want := func(i int64) V {
		if i%2 == 1 {
			return val(i + bulkShift)
		}
		return val(i)
	}
	idxs := make([]int64, elemN)
	futs := make([]*runtime.FutureOf[V], elemN)
	for i := int64(0); i < elemN; i++ {
		idxs[i] = (i*37 + 11) % elemN
		futs[i] = pa.GetSplit(i)
		if got := pa.Get(i); got != want(i) {
			t.Errorf("loc %d: parray.Get(%d) = %v, want %v", self, i, got, want(i))
		}
	}
	for i, f := range futs {
		if got := f.Get(); got != want(int64(i)) {
			t.Errorf("loc %d: parray.GetSplit(%d) = %v, want %v", self, i, got, want(int64(i)))
		}
	}
	for k, got := range pa.GetBulk(idxs) {
		if got != want(idxs[k]) {
			t.Errorf("loc %d: parray.GetBulk[%d] = %v, want %v", self, idxs[k], got, want(idxs[k]))
		}
	}

	if n := hm.GlobalSize(); n != elemN {
		t.Errorf("loc %d: hashmap holds %d pairs, want %d", self, n, elemN)
	}
	hm.ForEachLocalBC(core.Read, func(bc *bcontainer.HashMap[string, V]) {
		bc.Range(func(k string, v V) bool {
			var i int64
			if _, err := fmt.Sscanf(k, "k%03d", &i); err != nil || v != val(i) {
				t.Errorf("loc %d: hashmap[%q] = %v (parse error %v)", self, k, v, err)
			}
			return true
		})
	})

	if n := g.NumEdges(); n != elemN {
		t.Errorf("loc %d: graph holds %d edges, want %d", self, n, elemN)
	}
	g.RangeLocalVertices(func(v *pgraph.Vertex[int64, EP]) bool {
		i := v.Descriptor
		if len(v.Edges) != 1 || v.Edges[0].Target != (i+1)%elemN || v.Edges[0].Property != prop(i) {
			t.Errorf("loc %d: vertex %d has edges %v", self, i, v.Edges)
		}
		return true
	})

	for i := int64(0); i < elemN; i++ {
		if dir.HomeOf(gid(i)) == self {
			wantOwner := owner(i + 1)
			if i == 1 {
				wantOwner = owner(0)
			}
			if b, ok := dir.LocalEntry(gid(i)); !ok || b != wantOwner {
				t.Errorf("loc %d: directory entry %d = (%d, %v), want %d", self, i, b, ok, wantOwner)
			}
		}
		if j := i + bulkShift; dir.HomeOf(gid(j)) == self {
			if b, ok := dir.LocalEntry(gid(j)); ok != (i != 0) || (ok && b != owner(0)) {
				t.Errorf("loc %d: directory bulk entry %d = (%d, %v)", self, j, b, ok)
			}
		}
	}
	loc.Fence()
}

func runElemProgram(t *testing.T, factory runtime.TransportFactory, byRef bool) (runtime.Stats, transport.WireStats) {
	t.Helper()
	cfg := runtime.DefaultConfig()
	cfg.Transport = factory
	m := runtime.NewMachine(elemLocs, cfg)
	fault := m.ExecuteErr(func(loc *runtime.Location) {
		if byRef {
			elemProgram(t, loc,
				func(i int64) point { return point{X: i, Y: -i} },
				func(i int64) dirKey { return dirKey{Shard: int32(i % 7), ID: int32(i)} },
				func(k dirKey) uint64 { return uint64(k.ID)*31 + uint64(k.Shard) },
				func(i int64) int8 { return int8(i % 100) })
		} else {
			elemProgram(t, loc,
				func(i int64) int64 { return i * 3 },
				func(i int64) int64 { return i },
				partition.Int64Hash,
				func(i int64) int64 { return i % 100 })
		}
	})
	if fault != nil {
		t.Fatalf("run faulted: %v", fault)
	}
	return m.Stats(), m.WireStats()
}

// TestByReferenceOpsEndToEnd pins that a container at a codec-less element
// type behaves exactly like one at a codec-backed type: values read back
// correct on every transport, machine statistics identical across
// transports, and the only difference is on the wire — by-reference
// operations rendezvous, by-value ones never do.
func TestByReferenceOpsEndToEnd(t *testing.T) {
	transports := []struct {
		name    string
		factory runtime.TransportFactory
		wire    bool
	}{
		{"inproc", runtime.InprocTransport, false},
		{"wire", runtime.WireTransport, true},
		{"tcp", runtime.TCPLoopbackTransport, true},
	}
	for _, byRef := range []bool{true, false} {
		var baseline runtime.Stats
		for _, tr := range transports {
			t.Run(fmt.Sprintf("byRef=%v/%s", byRef, tr.name), func(t *testing.T) {
				stats, wire := runElemProgram(t, tr.factory, byRef)
				if tr.name == "inproc" {
					baseline = stats
				} else if stats != baseline {
					t.Errorf("stats diverge from inproc:\n inproc: %+v\n %s: %+v", baseline, tr.name, stats)
				}
				switch {
				case !tr.wire && wire != (transport.WireStats{}):
					t.Errorf("inproc reported wire traffic: %+v", wire)
				case tr.wire && byRef && wire.RendezvousFallbacks == 0:
					t.Error("by-reference operations crossed a wire with no rendezvous fallback")
				case tr.wire && !byRef && wire.RendezvousFallbacks != 0:
					t.Errorf("by-value program took %d rendezvous fallbacks, want 0", wire.RendezvousFallbacks)
				}
			})
		}
	}
}

// Two distinct codec-less types can print alike — here two function-local
// types both called rec.  Each instantiation registers its operations under
// names built from the type, so the names must still differ.
func recArrayA(t *testing.T, loc *runtime.Location) {
	type rec struct{ A int64 }
	pa := parray.New[rec](loc, 10)
	loc.Barrier()
	if loc.ID() == 0 {
		pa.Set(9, rec{A: 7})
	}
	loc.Fence()
	if got := pa.Get(9); got != (rec{A: 7}) {
		t.Errorf("loc %d: A-array[9] = %v", loc.ID(), got)
	}
	loc.Fence()
}

func recArrayB(t *testing.T, loc *runtime.Location) {
	type rec struct{ B string }
	pa := parray.New[rec](loc, 10)
	loc.Barrier()
	if loc.ID() == 0 {
		pa.SetBulk([]int64{8, 9}, []rec{{B: "x"}, {B: "y"}})
	}
	loc.Fence()
	if got := pa.GetBulk([]int64{9, 8}); got[0] != (rec{B: "y"}) || got[1] != (rec{B: "x"}) {
		t.Errorf("loc %d: B-array[9,8] = %v", loc.ID(), got)
	}
	loc.Fence()
}

func TestSameNamedElementTypesCoexist(t *testing.T) {
	cfg := runtime.DefaultConfig()
	cfg.Transport = runtime.WireTransport
	fault := runtime.NewMachine(2, cfg).ExecuteErr(func(loc *runtime.Location) {
		recArrayA(t, loc)
		recArrayB(t, loc)
	})
	if fault != nil {
		t.Fatalf("run faulted: %v", fault)
	}
}

// A by-reference read's argument record crosses a wire by pointer, so it
// carries the caller's future and the value comes home through memory, as a
// closure read's does: the wire sees one rendezvous descriptor per request and
// no reply frame.
func TestByReferenceReadCompletesInMemory(t *testing.T) {
	const reads = 20
	cfg := runtime.DefaultConfig()
	cfg.Transport = runtime.WireTransport
	m := runtime.NewMachine(2, cfg)
	fault := m.ExecuteErr(func(loc *runtime.Location) {
		pa := parray.New[point](loc, 10)
		loc.Barrier()
		if loc.ID() == 0 {
			for i := 0; i < reads; i++ {
				if got := pa.Get(9); got != (point{}) {
					t.Errorf("read %d = %v, want the zero point", i, got)
				}
			}
		}
		loc.Fence()
	})
	if fault != nil {
		t.Fatalf("run faulted: %v", fault)
	}
	if got := m.WireStats().RendezvousFallbacks; got != reads {
		t.Errorf("%d remote by-reference reads took %d rendezvous fallbacks, want %d", reads, got, reads)
	}
}
