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
	// What a remote pArray access allocated when the local branch was pinned
	// (averages over 200 calls, rounded down by AllocsPerRun): a future and
	// its wait channel for a read, nothing beyond a pool miss for a write.
	// Every family's remote Get/Set is the same element operation now and is
	// held to the same numbers; they may fall.
	const remoteGetAllocs, remoteSetAllocs = 2, 2
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
				pin := float64(remoteGetAllocs)
				if f.name == "phashmap" {
					pin++ // a find's reply boxes (value, present); it was 5 on the closure path
				}
				if got := testing.AllocsPerRun(200, f.read); got > pin {
					t.Errorf("%s: a remote read allocates %v objects, pinned at %v", f.name, got, pin)
				}
				if got := testing.AllocsPerRun(200, f.write); got > remoteSetAllocs {
					t.Errorf("%s: a remote write allocates %v objects, pinned at %d", f.name, got, remoteSetAllocs)
				}
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
