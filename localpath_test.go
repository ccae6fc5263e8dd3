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
// location 0 owns (and, for pArray, on one it does not).
type localFamily struct {
	name        string
	read, write func()
}

var localSink int64

// localFamilies is collective; the methods it returns are location 0's.
func localFamilies(loc *runtime.Location) (local []localFamily, remote localFamily) {
	const perLoc = 64
	n := int64(loc.NumLocations()) * perLoc
	arr := parray.New[int64](loc, n)
	vec := pvector.New[int64](loc, n)
	mat := pmatrix.New[int64](loc, 8, 8)
	sp := pmatrix.NewSparse[int64](loc, 8, 8)
	lst := plist.New[int64](loc)
	hm := passoc.NewHashMap[int64, int64](loc, partition.Int64Hash)
	gid := lst.PushAnywhere(1)
	key := int64(0)
	for hm.Lookup(key) != loc.ID() {
		key++
	}
	hm.Insert(key, 1)
	if loc.ID() == 0 {
		sp.Set(0, 1, 1) // later Sets overwrite the stored entry
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
	remote = localFamily{"parray-remote", func() { localSink += arr.Get(perLoc + 3) }, func() { arr.Set(perLoc+3, 7) }}
	return local, remote
}

func TestLocalElementMethodsAllocateNothing(t *testing.T) {
	// What a remote pArray access allocated when the local branch was pinned
	// (averages over 200 calls, rounded down by AllocsPerRun); they may fall.
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
			if got := testing.AllocsPerRun(200, remote.read); got > remoteGetAllocs {
				t.Errorf("remote parray.Get allocates %v objects, pinned at %d", got, remoteGetAllocs)
			}
			if got := testing.AllocsPerRun(200, remote.write); got > remoteSetAllocs {
				t.Errorf("remote parray.Set allocates %v objects, pinned at %d", got, remoteSetAllocs)
			}
		}
		loc.Fence()
	})
}

// BenchmarkLocalElementMethods times one local read plus one local write per
// iteration, one sub-benchmark per container family.
func BenchmarkLocalElementMethods(b *testing.B) {
	families := []string{"parray", "pvector", "pmatrix", "pmatrix-sparse", "plist", "phashmap"}
	for i, name := range families {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			runtime.NewMachine(2, runtime.DefaultConfig()).Execute(func(loc *runtime.Location) {
				local, _ := localFamilies(loc)
				if f := local[i]; loc.ID() == 0 {
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
