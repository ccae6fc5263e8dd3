package repro

import (
	"testing"

	"repro/internal/containers/parray"
	"repro/internal/containers/passoc"
	"repro/internal/containers/plist"
	"repro/internal/containers/pmatrix"
	"repro/internal/containers/pvector"
	"repro/internal/partition"
	"repro/internal/runtime"
)

// The local branch of an element method is one resolution, one data bracket
// and the base container's own call: it builds no closure, no future and no
// boxed value.  localFamilies drives that branch in every family through the
// public container interface; the test pins it at zero allocations and the
// benchmark shows its time and allocs/op in the bench-time log.

// localFamily is one family's pair of element methods on an element that
// location 0 owns, or — in the remote list — on one that location 1 owns.
type localFamily struct {
	name        string
	read, write func()
}

var localSink int64

// localFamilies is collective; the methods it returns are location 0's.
func localFamilies(loc *runtime.Location) (local, remote []localFamily) {
	const perLoc = 64
	n := int64(loc.NumLocations()) * perLoc
	arr := parray.New[int64](loc, n)
	vec := pvector.New[int64](loc, n)
	mat := pmatrix.New[int64](loc, 8, 8)
	sp := pmatrix.NewSparse[int64](loc, 8, 8)
	lst := plist.New[int64](loc)
	hm := passoc.NewHashMap[int64, int64](loc, partition.Int64Hash)
	gids := runtime.AllGatherT(loc, lst.PushAnywhere(1))
	gid, rgid := gids[0], gids[1]
	key, rkey := int64(0), int64(0)
	for hm.Lookup(key) != 0 {
		key++
	}
	for hm.Lookup(rkey) != 1 {
		rkey++
	}
	if loc.ID() == 0 {
		hm.Insert(key, 1)
		hm.Insert(rkey, 1)
		sp.Set(0, 1, 1) // later Sets overwrite the stored entries
		sp.Set(7, 1, 1)
	}
	loc.Fence()
	local = []localFamily{
		{"parray", func() { localSink += arr.Get(3) }, func() { arr.Set(3, 7) }},
		{"pvector", func() { localSink += vec.Get(3) }, func() { vec.Set(3, 7) }},
		{"pmatrix", func() { localSink += mat.Get(0, 1) }, func() { mat.Set(0, 1, 7) }},
		{"pmatrix-sparse", func() { localSink += sp.Get(0, 1) }, func() { sp.Set(0, 1, 7) }},
		{"plist", func() { localSink += lst.Get(gid) }, func() { lst.Set(gid, 7) }},
		{"phashmap", func() { v, _ := hm.Find(key); localSink += v }, func() { hm.Insert(key, 7) }},
	}
	remote = []localFamily{
		{"parray", func() { localSink += arr.Get(perLoc + 3) }, func() { arr.Set(perLoc+3, 7) }},
		{"pvector", func() { localSink += vec.Get(perLoc + 3) }, func() { vec.Set(perLoc+3, 7) }},
		{"pmatrix", func() { localSink += mat.Get(7, 1) }, func() { mat.Set(7, 1, 7) }},
		{"pmatrix-sparse", func() { localSink += sp.Get(7, 1) }, func() { sp.Set(7, 1, 7) }},
		{"plist", func() { localSink += lst.Get(rgid) }, func() { lst.Set(rgid, 7) }},
		{"phashmap", func() { v, _ := hm.Find(rkey); localSink += v }, func() { hm.Insert(rkey, 7) }},
	}
	return local, remote
}

func TestLocalElementMethodsAllocateNothing(t *testing.T) {
	// Every family's remote Get/Set is the same element operation and allocates
	// nothing either, exactly: a blocking read parks on a pooled result cell the
	// owner writes in place (it used to build a future and its wait channel, and
	// a find boxed its reply on top), a write travels in a pooled record through
	// a pooled aggregation buffer (whose slice header used to be boxed on every
	// flush).  Under the race detector sync.Pool drops a quarter of what it is
	// handed, at random: there the remote rows keep the bound (2) they had before
	// they were exact; the local rows use no pool.
	if !raceDetector {
		steadyAllocs(t)
	}
	remotePin := func(got float64) bool {
		if raceDetector {
			return got <= 2
		}
		return got == 0
	}
	cfg := runtime.DefaultConfig()
	cfg.Transport = runtime.InprocTransport // the remote pins are the in-process transport's
	runtime.NewMachine(2, cfg).Execute(func(loc *runtime.Location) {
		local, remote := localFamilies(loc)
		if loc.ID() == 0 {
			for _, f := range local {
				if got := testing.AllocsPerRun(200, f.read); got != 0 {
					t.Errorf("%s: a local read allocates %v objects, want 0", f.name, got)
				}
				if got := testing.AllocsPerRun(200, f.write); got != 0 {
					t.Errorf("%s: a local write allocates %v objects, want 0", f.name, got)
				}
			}
			for _, f := range remote {
				if got := testing.AllocsPerRun(200, f.read); !remotePin(got) {
					t.Errorf("%s: a remote read allocates %v objects, want 0", f.name, got)
				}
				// Writes are asynchronous: the run's 201 records are all in flight
				// before the owner recycles the first, so the pools must have
				// met that many.
				for i := 0; i < 400; i++ {
					f.write()
				}
				loc.OneSidedFence()
				if got := testing.AllocsPerRun(200, f.write); !remotePin(got) {
					t.Errorf("%s: a remote write allocates %v objects, want 0", f.name, got)
				}
				loc.OneSidedFence()
			}
		}
		loc.Fence()
	})
}

var elementFamilies = []string{"parray", "pvector", "pmatrix", "pmatrix-sparse", "plist", "phashmap"}

// benchElementMethods times one read plus one write per iteration, one
// sub-benchmark per container family, on location 0's own elements or on
// location 1's.
func benchElementMethods(b *testing.B, remote bool) {
	for i, name := range elementFamilies {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := runtime.DefaultConfig()
			cfg.Transport = runtime.InprocTransport
			runtime.NewMachine(2, cfg).Execute(func(loc *runtime.Location) {
				fams, away := localFamilies(loc)
				if remote {
					fams = away
				}
				if f := fams[i]; loc.ID() == 0 {
					if f.name != name {
						b.Errorf("family %d is %s, want %s", i, f.name, name)
					}
					b.ResetTimer()
					for k := 0; k < b.N; k++ {
						f.read()
						f.write()
					}
					b.StopTimer()
				}
				loc.Fence()
			})
		})
	}
}

// BenchmarkLocalElementMethods: 0 allocs/op in every row.
func BenchmarkLocalElementMethods(b *testing.B) { benchElementMethods(b, false) }

// BenchmarkRemoteElementMethods shows each family's remote allocs/op in the
// bench-time log (a blocking read and an asynchronous write per iteration).
func BenchmarkRemoteElementMethods(b *testing.B) { benchElementMethods(b, true) }

// onWire runs body on location 0 of a two-location machine whose batches cross
// the wire protocol stack built by factory.  The array holds 2n elements, so
// indices n..2n-1 are location 1's.
func onWire(factory runtime.TransportFactory, n int64, body func(loc *runtime.Location, arr *parray.Array[int64])) {
	cfg := runtime.DefaultConfig()
	cfg.Transport = factory
	runtime.NewMachine(2, cfg).Execute(func(loc *runtime.Location) {
		arr := parray.New[int64](loc, 2*n)
		loc.Fence()
		if loc.ID() == 0 {
			body(loc, arr)
		}
		loc.Fence()
	})
}

// remoteRun returns location 1's n indices and as many values.
func remoteRun(n int64) (idxs, vals []int64) {
	idxs, vals = make([]int64, n), make([]int64, n)
	for i := range idxs {
		idxs[i], vals[i] = n+int64(i), int64(i)<<20
	}
	return idxs, vals
}

// TestWireElementMethodAllocations pins what a by-value element method
// allocates once its request is marshalled: a frame is sized once and decoded
// in place, so the count does not depend on how many elements a bulk group
// carries, and a blocking read costs a fixed handful.
func TestWireElementMethodAllocations(t *testing.T) {
	steadyAllocs(t)
	// A SetBulk+GetBulk pair is three messages (group, group, group reply), a
	// Get is two (request, reply).  A message allocates its frame, the frame's
	// envelope and the receiver's descriptor slice: three, none of them
	// poolable (a frame is never recycled) — its acknowledgement rides on the
	// next envelope the other way and allocates nothing.  On top of that the
	// pair allocates the caller's result slice and its reply callback, the read
	// its reply callback (the result cell the callback fills is pooled).  A
	// socket adds the buffer each frame is received into.
	// While a blocking call built a future (or a tracker) and a channel per
	// call and the bulk walk boxed four index-slice headers, the counts were
	// 17 and 9 over the protocol stack, 20 and 11 over TCP.
	for _, tr := range []struct {
		name                      string
		factory                   runtime.TransportFactory
		bulkPairAllocs, getAllocs float64
	}{
		{"wire", runtime.WireTransport, 11, 7},
		{"tcp", runtime.TCPLoopbackTransport, 14, 9},
	} {
		for _, n := range []int64{64, 1024, 8192} {
			onWire(tr.factory, n, func(_ *runtime.Location, arr *parray.Array[int64]) {
				idxs, vals := remoteRun(n)
				pair := func() {
					arr.SetBulk(idxs, vals)
					localSink += arr.GetBulk(idxs)[0]
				}
				for i := 0; i < 4; i++ {
					pair() // the pooled slices have met a group of this size
				}
				// (All but the odd one: the pool hands out a fresh walk scratch when
				// the two locations' walks overlap.  The average rounds that away.)
				got := testing.AllocsPerRun(50, pair)
				t.Logf("%s: SetBulk+GetBulk of %d remote elements: %v allocs", tr.name, n, got)
				if got != tr.bulkPairAllocs {
					t.Errorf("%s: SetBulk+GetBulk of %d remote elements allocates %v objects, pinned at %v for every size", tr.name, n, got, tr.bulkPairAllocs)
				}
			})
		}
		onWire(tr.factory, 64, func(_ *runtime.Location, arr *parray.Array[int64]) {
			got := testing.AllocsPerRun(200, func() { localSink += arr.Get(64 + 3) })
			t.Logf("%s: a remote read: %v allocs", tr.name, got)
			if got != tr.getAllocs {
				t.Errorf("%s: a remote read allocates %v objects, pinned at %v", tr.name, got, tr.getAllocs)
			}
		})
	}
}

// BenchmarkWireElementMethods shows what the marshalled path costs in the
// bench-time log: a blocking read, a write made visible by a one-sided fence,
// and a bulk write+read pair of 1024 elements, over the protocol stack alone
// and over loopback sockets.
func BenchmarkWireElementMethods(b *testing.B) {
	const n = 1024
	idxs, vals := remoteRun(n)
	for _, tr := range []struct {
		name    string
		factory runtime.TransportFactory
	}{{"wire", runtime.WireTransport}, {"tcp", runtime.TCPLoopbackTransport}} {
		for _, m := range []struct {
			name string
			call func(arr *parray.Array[int64], loc *runtime.Location)
		}{
			{"get", func(arr *parray.Array[int64], _ *runtime.Location) { localSink += arr.Get(n + 3) }},
			{"set-fence", func(arr *parray.Array[int64], loc *runtime.Location) { arr.Set(n+3, 7); loc.OneSidedFence() }},
			{"bulk1024", func(arr *parray.Array[int64], _ *runtime.Location) {
				arr.SetBulk(idxs, vals)
				localSink += arr.GetBulk(idxs)[0]
			}},
		} {
			b.Run(tr.name+"/"+m.name, func(b *testing.B) {
				b.ReportAllocs()
				onWire(tr.factory, n, func(loc *runtime.Location, arr *parray.Array[int64]) {
					b.ResetTimer()
					for k := 0; k < b.N; k++ {
						m.call(arr, loc)
					}
					b.StopTimer()
				})
			})
		}
	}
}
