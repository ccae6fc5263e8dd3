package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/containers/parray"
	"repro/internal/containers/passoc"
	"repro/internal/containers/pgraph"
	"repro/internal/containers/plist"
	"repro/internal/containers/pmatrix"
	"repro/internal/containers/pvector"
	"repro/internal/domain"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// Every family's element traffic is the same element operation, so two things
// hold for all of them alike and are pinned here, family by family:
//
//   - at an element type with a wire codec it crosses a wire as bytes
//     (RendezvousFallbacks == 0), at a codec-less one by reference — same
//     handlers, same counters, only the wire adapter knows;
//   - SetBulk and its kin copy what they ship: the caller's slices are its own
//     again when the call returns.

const (
	famLocs = 3
	famPer  = 8 // elements per location in every indexed family
	famN    = famLocs * famPer
	famSide = 6 // the matrices are famSide x famSide
)

// family is one family's remote element traffic on a fresh container.  write
// and read run on location 0 only; setBulk runs there too and returns a func
// that scribbles over the slices it passed; check runs everywhere after a
// fence.  None of them calls a closure-carrying method.
type family struct {
	name    string
	write   func()
	read    func(t *testing.T)
	setBulk func() (scribble func())
	check   func(t *testing.T)
}

func eq[V comparable](t *testing.T, what string, got, want V) {
	t.Helper()
	if got != want {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

// families builds every family at element type V; val(i) is the i-th test
// value and must differ from val(j) and from the zero V.  Collective.
func families[V comparable](loc *runtime.Location, val func(i int64) V) []family {
	var zero V
	arr := parray.New[V](loc, famN)
	vec := pvector.New[V](loc, famN)
	mat := pmatrix.New[V](loc, famSide, famSide)
	sp := pmatrix.NewSparse[V](loc, famSide, famSide)
	lst := plist.New[V](loc)
	hm := passoc.NewHashMap[int64, V](loc, partition.Int64Hash)
	g := pgraph.New[V, V](loc, famN)
	var mine []plist.GID
	for i := 0; i < famPer; i++ {
		mine = append(mine, lst.PushAnywhere(zero))
	}
	gids := runtime.AllGatherT(loc, mine) // gids[l] are location l's elements
	loc.Fence()

	// Indexed families share one shape: element i gets val(i), then the odd
	// ones are overwritten in bulk with val(i+famN).
	indexed := func(name string, set func(i int64, v V), get func(i int64) V, split func(i int64) *runtime.FutureOf[V],
		setBulk func(idxs []int64, vals []V), getBulk func(idxs []int64) []V) family {
		want := func(i int64) V {
			if i%2 == 1 {
				return val(i + famN)
			}
			return val(i)
		}
		var odd []int64
		for i := int64(1); i < famN; i += 2 {
			odd = append(odd, i)
		}
		return family{
			name: name,
			write: func() {
				for i := int64(0); i < famN; i++ {
					set(i, val(i))
				}
			},
			read: func(t *testing.T) {
				for i := int64(0); i < famN; i++ {
					f := split(i)
					eq(t, fmt.Sprintf("%s.Get(%d)", name, i), get(i), val(i))
					eq(t, fmt.Sprintf("%s.GetSplit(%d)", name, i), f.Get(), val(i))
				}
			},
			setBulk: func() func() {
				idxs, vals := append([]int64(nil), odd...), make([]V, len(odd))
				for k, i := range idxs {
					vals[k] = val(i + famN)
				}
				setBulk(idxs, vals)
				return func() {
					for k := range idxs {
						idxs[k], vals[k] = 0, zero
					}
				}
			},
			check: func(t *testing.T) {
				all := make([]int64, famN)
				for i := range all {
					all[i] = int64(famN - 1 - i)
				}
				for k, got := range getBulk(all) {
					eq(t, fmt.Sprintf("%s.GetBulk[%d]", name, all[k]), got, want(all[k]))
				}
				eq(t, name+"[0]", get(0), val(0))
			},
		}
	}
	cell := func(i int64) (int64, int64) { return i / famSide, i % famSide }
	cells := func(idxs []int64) []domain.Index2D {
		out := make([]domain.Index2D, len(idxs))
		for k, i := range idxs {
			out[k].Row, out[k].Col = cell(i)
		}
		return out
	}
	gidOf := func(i int64) plist.GID { return gids[i/famPer][i%famPer] }
	gidsOf := func(idxs []int64) []plist.GID {
		out := make([]plist.GID, len(idxs))
		for k, i := range idxs {
			out[k] = gidOf(i)
		}
		return out
	}
	edges := func() []pgraph.EdgeSpec[V] {
		var out []pgraph.EdgeSpec[V]
		for i := int64(0); i < famN; i++ {
			out = append(out, pgraph.EdgeSpec[V]{Src: i, Tgt: (i + 2) % famN, Prop: val(i + famN)})
		}
		return out
	}
	return []family{
		indexed("parray", arr.Set, arr.Get, arr.GetSplit, arr.SetBulk, arr.GetBulk),
		indexed("pvector", vec.Set, vec.Get, vec.GetSplit, vec.SetBulk, vec.GetBulk),
		indexed("pmatrix",
			func(i int64, v V) { r, c := cell(i); mat.Set(r, c, v) },
			func(i int64) V { r, c := cell(i); return mat.Get(r, c) },
			func(i int64) *runtime.FutureOf[V] { r, c := cell(i); return mat.GetSplit(r, c) },
			func(idxs []int64, vals []V) { mat.SetBulk(cells(idxs), vals) },
			func(idxs []int64) []V { return mat.GetBulk(cells(idxs)) }),
		indexed("pmatrix-sparse",
			func(i int64, v V) { r, c := cell(i); sp.Set(r, c, v) },
			func(i int64) V { r, c := cell(i); return sp.Get(r, c) },
			func(i int64) *runtime.FutureOf[V] { r, c := cell(i); return runtime.CompletedFuture(sp.Get(r, c)) },
			func(idxs []int64, vals []V) { sp.SetBulk(cells(idxs), vals) },
			func(idxs []int64) []V { return sp.GetBulk(cells(idxs)) }),
		indexed("plist",
			func(i int64, v V) { lst.Set(gidOf(i), v) },
			func(i int64) V { return lst.Get(gidOf(i)) },
			func(i int64) *runtime.FutureOf[V] { return lst.GetSplit(gidOf(i)) },
			func(idxs []int64, vals []V) { lst.SetBulk(gidsOf(idxs), vals) },
			func(idxs []int64) []V { return lst.GetBulk(gidsOf(idxs)) }),
		indexed("phashmap", hm.Insert,
			func(i int64) V { v, _ := hm.Find(i); return v },
			hm.FindSplit,
			hm.InsertBulk,
			func(idxs []int64) []V { vals, _ := hm.FindBulk(idxs); return vals }),
		{
			name: "pgraph",
			write: func() {
				for i := int64(0); i < famN; i++ {
					g.AddEdgeAsync(i, (i+1)%famN, val(i))
				}
			},
			read: func(t *testing.T) {
				for i := int64(0); i < famN; i++ {
					if p, ok := g.VertexProperty(i); !ok || p != zero {
						t.Errorf("pgraph.VertexProperty(%d) = (%v, %v)", i, p, ok)
					}
				}
				if _, ok := g.VertexProperty(famN); ok {
					t.Errorf("pgraph.VertexProperty(%d) found a vertex outside the graph", famN)
				}
			},
			setBulk: func() func() {
				es := edges()
				g.AddEdgesBulk(es)
				return func() {
					for k := range es {
						es[k] = pgraph.EdgeSpec[V]{}
					}
				}
			},
			check: func(t *testing.T) {
				g.RangeLocalVertices(func(v *pgraph.Vertex[V, V]) bool {
					i := v.Descriptor
					if len(v.Edges) != 2 || v.Edges[0].Target != (i+1)%famN || v.Edges[0].Property != val(i) ||
						v.Edges[1].Target != (i+2)%famN || v.Edges[1].Property != val(i+famN) {
						t.Errorf("pgraph vertex %d has edges %v", i, v.Edges)
					}
					return true
				})
			},
		},
	}
}

// runFamilies drives every family's traffic over one transport.  scribble
// makes location 0 overwrite the slices it handed to each bulk write as soon
// as the call returns.
func runFamilies[V comparable](t *testing.T, cfg runtime.Config, val func(i int64) V, scribble bool) (runtime.Stats, transport.WireStats) {
	t.Helper()
	m := runtime.NewMachine(famLocs, cfg)
	fault := m.ExecuteErr(func(loc *runtime.Location) {
		for _, f := range families(loc, val) {
			if loc.ID() == 0 {
				f.write()
			}
			loc.Fence()
			if loc.ID() == 0 {
				f.read(t)
				if mutate := f.setBulk(); scribble {
					mutate()
				}
			}
			loc.Fence()
			f.check(t)
			loc.Fence()
		}
	})
	if fault != nil {
		t.Fatalf("run faulted: %v", fault)
	}
	return m.Stats(), m.WireStats()
}

func pointVal(i int64) point { return point{X: i + 1, Y: -i} }
func int64Val(i int64) int64 { return i*3 + 1 }

// TestElementTrafficSelfDecodesAcrossWire: at int64 every family's element
// traffic crosses the wire protocol as self-decoding frames — op ID plus
// codec-encoded record, rebuilt and executed from bytes with no sender-side
// state, which is what a process boundary requires.  Its twin at a codec-less
// struct runs the same handlers by reference: identical machine statistics,
// and the rendezvous carries what the codecs could not.
func TestElementTrafficSelfDecodesAcrossWire(t *testing.T) {
	cfg := runtime.DefaultConfig()
	cfg.Transport = runtime.WireTransport
	byValue, wire := runFamilies(t, cfg, int64Val, false)
	if wire.RendezvousFallbacks != 0 {
		t.Errorf("int64 elements took %d rendezvous fallbacks; every family's element traffic must be self-decoding", wire.RendezvousFallbacks)
	}
	if wire.DataFrames == 0 {
		t.Error("the workload moved no wire frames; the test did not exercise the wire path")
	}
	byRef, wire := runFamilies(t, cfg, pointVal, false)
	if wire.RendezvousFallbacks == 0 {
		t.Error("codec-less elements crossed a wire with no rendezvous fallback")
	}
	if byRef != byValue {
		t.Errorf("machine statistics depend on how the records cross:\n by value:     %+v\n by reference: %+v", byValue, byRef)
	}
	cfg.Transport = runtime.InprocTransport
	if inproc, _ := runFamilies(t, cfg, int64Val, false); inproc != byValue {
		t.Errorf("machine statistics depend on the transport:\n inproc: %+v\n wire:   %+v", inproc, byValue)
	}
}

// TestBulkWritesDoNotRetainTheirSlices: one aliasing rule for every family —
// a group shipped to another location copies its share, so the caller may
// reuse both slices the moment SetBulk / InsertBulk / AddEdgesBulk returns.
// Remote requests are held back a little so that the handlers certainly run
// after the scribbling (the four closure families used to ship references and
// stored the scribbled values).
func TestBulkWritesDoNotRetainTheirSlices(t *testing.T) {
	cfg := runtime.DefaultConfig()
	cfg.Transport = runtime.InprocTransport // by pointer: nothing is copied on the way
	cfg.RemoteDelay = func(src, dst int) time.Duration { return 200 * time.Microsecond }
	runFamilies(t, cfg, int64Val, true)
	runFamilies(t, cfg, pointVal, true)
}
