package core

import (
	"sync"
	"testing"

	"repro/internal/domain"
	"repro/internal/partition"
	"repro/internal/runtime"
)

// testBC is a minimal bContainer used to exercise the framework machinery
// directly, independent of the real containers.
type testBC struct {
	bcid partition.BCID
	mu   sync.Mutex
	data map[int64]int64
}

func newTestBC(b partition.BCID) *testBC { return &testBC{bcid: b, data: make(map[int64]int64)} }

func (b *testBC) BCID() partition.BCID { return b.bcid }
func (b *testBC) Size() int64          { return int64(len(b.data)) }
func (b *testBC) Empty() bool          { return len(b.data) == 0 }
func (b *testBC) Clear()               { b.data = make(map[int64]int64) }
func (b *testBC) MemoryBytes() (int64, int64) {
	return int64(len(b.data)) * 16, 32
}
func (b *testBC) set(k, v int64) { b.mu.Lock(); b.data[k] = v; b.mu.Unlock() }
func (b *testBC) get(k int64) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.data[k]
}

// testContainer is a tiny indexed container over testBC.
type testContainer struct {
	Container[int64, *testBC]
}

func newTestContainer(loc *runtime.Location, n int64, traits Traits) *testContainer {
	p := partition.NewBalanced(domain.NewRange1D(0, n), loc.NumLocations())
	m := partition.NewBlockedMapper(p.NumSubdomains(), loc.NumLocations())
	c := &testContainer{}
	c.InitContainer(loc, IndexedResolver{Partition: p, Mapper: m}, traits)
	for _, b := range m.LocalBCIDs(loc.ID()) {
		c.LocationManager().Add(newTestBC(b))
	}
	loc.Barrier()
	return c
}

func run(p int, fn func(loc *runtime.Location)) {
	runtime.NewMachine(p, runtime.DefaultConfig()).Execute(fn)
}

func TestLocationManager(t *testing.T) {
	lm := NewLocationManager[*testBC]()
	if lm.NumBContainers() != 0 || lm.LocalSize() != 0 {
		t.Fatal("new manager not empty")
	}
	a := newTestBC(0)
	b := newTestBC(3)
	lm.Add(a)
	lm.Add(b)
	if lm.NumBContainers() != 2 {
		t.Fatal("add failed")
	}
	if got := lm.BCIDs(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("bcids = %v", got)
	}
	if x, ok := lm.Get(3); !ok || x != b {
		t.Fatal("get failed")
	}
	if _, ok := lm.Get(9); ok {
		t.Fatal("get of absent bcid should fail")
	}
	if lm.MustGet(0) != a {
		t.Fatal("mustGet failed")
	}
	a.set(1, 1)
	a.set(2, 2)
	b.set(3, 3)
	if lm.LocalSize() != 3 {
		t.Fatalf("local size = %d", lm.LocalSize())
	}
	count := 0
	lm.ForEach(func(*testBC) { count++ })
	if count != 2 {
		t.Fatal("forEach wrong")
	}
	d, m := lm.MemoryBytes()
	if d != 48 || m <= 0 {
		t.Fatalf("memory = %d/%d", d, m)
	}
	lm.Clear()
	if lm.LocalSize() != 0 {
		t.Fatal("clear failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate add should panic")
		}
	}()
	lm.Add(b)
}

func TestLocationManagerMustGetPanics(t *testing.T) {
	lm := NewLocationManager[*testBC]()
	defer func() {
		if recover() == nil {
			t.Fatal("mustGet of absent bcid should panic")
		}
	}()
	lm.MustGet(1)
}

func TestThreadSafetyManagers(t *testing.T) {
	// Each manager must allow a bracketed sequence without deadlock and
	// actually serialise writers (checked by hammering a counter).
	managers := map[string]ThreadSafety{
		"none":       NoLocking{},
		"bcontainer": NewBContainerLocking(),
		"location":   NewLocationLocking(),
	}
	for name, m := range managers {
		m.MetadataAccessPre(Read)
		m.MetadataAccessPost(Read)
		m.MetadataAccessPre(Write)
		m.MetadataAccessPost(Write)
		m.DataAccessPre(0, Read)
		m.DataAccessPost(0, Read)
		m.DataAccessPre(0, Write)
		m.DataAccessPost(0, Write)
		m.Retain(nil)
		m.DataAccessPre(0, Write)
		m.DataAccessPost(0, Write)
		_ = name
	}
	// Serialisation check for the locking managers.
	for _, m := range []ThreadSafety{NewBContainerLocking(), NewLocationLocking()} {
		counter := 0
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					m.DataAccessPre(2, Write)
					counter++
					m.DataAccessPost(2, Write)
				}
			}()
		}
		wg.Wait()
		if counter != 8000 {
			t.Fatalf("lost updates under locking manager: %d", counter)
		}
	}
}

func TestTraitsSelection(t *testing.T) {
	d := DefaultTraits()
	if d.Locking != PolicyPerBContainer || d.Consistency != Relaxed {
		t.Fatal("defaults wrong")
	}
	if _, ok := d.manager().(*BContainerLocking); !ok {
		t.Fatal("default manager wrong")
	}
	if _, ok := (Traits{Locking: PolicyPerLocation}).manager().(*LocationLocking); !ok {
		t.Fatal("per-location manager wrong")
	}
	if _, ok := (Traits{Locking: PolicyNone}).manager().(NoLocking); !ok {
		t.Fatal("none manager wrong")
	}
	custom := NewLocationLocking()
	if (Traits{Custom: custom}).manager() != custom {
		t.Fatal("custom manager not honoured")
	}
}

func TestContainerBaseInvokeFlavours(t *testing.T) {
	run(4, func(loc *runtime.Location) {
		c := newTestContainer(loc, 100, DefaultTraits())
		loc.Barrier()
		// Asynchronous writes to every index from location 0.
		if loc.ID() == 0 {
			for i := int64(0); i < 100; i++ {
				i := i
				c.Invoke(i, Write, func(_ *runtime.Location, bc *testBC) { bc.set(i, i*2) })
			}
		}
		loc.Fence()
		// Synchronous reads from every location.
		for i := int64(0); i < 100; i += 9 {
			i := i
			got := c.InvokeRet(i, Read, func(_ *runtime.Location, bc *testBC) any { return bc.get(i) })
			if got.(int64) != i*2 {
				t.Errorf("InvokeRet(%d) = %v", i, got)
			}
		}
		// Split-phase reads.
		fut := c.InvokeSplit(50, Read, func(_ *runtime.Location, bc *testBC) any { return bc.get(50) })
		if fut.Get().(int64) != 100 {
			t.Error("InvokeSplit wrong")
		}
		// Per-BC invocation.
		c.InvokeOnBC(partition.BCID(loc.ID()), Write, func(_ *runtime.Location, bc *testBC) { bc.set(-1, 7) })
		loc.Fence()
		// IsLocal / Lookup / sizes / memory.
		if !c.IsLocal(int64(loc.ID()*25)) && loc.NumLocations() == 4 {
			t.Error("IsLocal wrong for first local index")
		}
		if c.Lookup(99) != 3 {
			t.Errorf("Lookup(99) = %d", c.Lookup(99))
		}
		if c.GlobalSize() != 100+int64(loc.NumLocations()) {
			t.Errorf("global size = %d", c.GlobalSize())
		}
		if c.GlobalEmpty() {
			t.Error("non-empty container reported empty")
		}
		mu := c.GlobalMemory(10)
		if mu.Data <= 0 || mu.Metadata <= 0 {
			t.Error("memory accounting wrong")
		}
		if c.Sequential() {
			t.Error("default traits should be relaxed")
		}
		loc.Fence()
	})
}

func TestInvokeAtAndInvokeAtRet(t *testing.T) {
	run(3, func(loc *runtime.Location) {
		c := newTestContainer(loc, 30, DefaultTraits())
		loc.Barrier()
		if loc.ID() == 0 {
			// Ask location 2 for its local size after planting data there.
			c.InvokeAt(2, func(_ *runtime.Location, self *Container[int64, *testBC]) {
				self.LocationManager().MustGet(partition.BCID(2)).set(25, 1)
			})
			got := c.InvokeAtRet(2, func(_ *runtime.Location, self *Container[int64, *testBC]) any {
				return self.LocalSize()
			})
			if got.(int64) != 1 {
				t.Errorf("remote local size = %v", got)
			}
		}
		loc.Fence()
	})
}

func TestSequentialTraitMakesInvokeSynchronous(t *testing.T) {
	run(2, func(loc *runtime.Location) {
		c := newTestContainer(loc, 10, Traits{Locking: PolicyPerBContainer, Consistency: Sequential})
		loc.Barrier()
		if loc.ID() == 0 {
			// Under Sequential, Invoke must have completed when it returns,
			// so an immediate remote synchronous read sees the value.
			c.Invoke(9, Write, func(_ *runtime.Location, bc *testBC) { bc.set(9, 1) })
			got := c.InvokeRet(9, Read, func(_ *runtime.Location, bc *testBC) any { return bc.get(9) })
			if got.(int64) != 1 {
				t.Error("sequential Invoke did not complete synchronously")
			}
		}
		loc.Fence()
	})
}

func TestMemoryUsageArithmetic(t *testing.T) {
	a := MemoryUsage{Data: 10, Metadata: 5}
	b := MemoryUsage{Data: 1, Metadata: 2}
	s := a.Add(b)
	if s.Data != 11 || s.Metadata != 7 || s.Total() != 18 {
		t.Fatal("arithmetic wrong")
	}
	if s.String() == "" {
		t.Fatal("string empty")
	}
}

// forwardingResolver exercises the method-forwarding path: a GID's owner is
// gid mod P, but only the owner itself and the directory location (the last
// location) can resolve it; every other location returns a hint pointing at
// the directory, so requests issued elsewhere take an extra forwarding hop.
type forwardingResolver struct {
	self, dirLoc, numLoc int
}

func (r forwardingResolver) Find(gid int64) partition.Info {
	owner := int(gid) % r.numLoc
	if r.self == owner || r.self == r.dirLoc {
		return partition.Found(partition.BCID(owner))
	}
	return partition.Forward(r.dirLoc)
}

func (r forwardingResolver) OwnerOf(b partition.BCID) int { return int(b) }

func TestMethodForwarding(t *testing.T) {
	run(4, func(loc *runtime.Location) {
		dir := loc.NumLocations() - 1
		c := &testContainer{}
		c.InitContainer(loc, forwardingResolver{self: loc.ID(), dirLoc: dir, numLoc: loc.NumLocations()}, DefaultTraits())
		c.LocationManager().Add(newTestBC(partition.BCID(loc.ID())))
		loc.Barrier()
		// Writes from location 0 must be forwarded through the directory
		// location and still land on the right owner.
		if loc.ID() == 0 {
			for g := int64(0); g < 8; g++ {
				g := g
				c.Invoke(g, Write, func(_ *runtime.Location, bc *testBC) { bc.set(g, g+100) })
			}
		}
		loc.Fence()
		// Synchronous (forwarded) reads see the data.
		if loc.ID() == 1 {
			for g := int64(0); g < 8; g++ {
				g := g
				got := c.InvokeRet(g, Read, func(_ *runtime.Location, bc *testBC) any { return bc.get(g) })
				if got.(int64) != g+100 {
					t.Errorf("forwarded read of %d = %v", g, got)
				}
			}
		}
		loc.Fence()
		// The element landed on owner gid % P, not on the directory.
		g := int64(2)
		if loc.ID() == 2 {
			bc := c.LocationManager().MustGet(partition.BCID(2))
			if bc.get(2) != 102 {
				t.Errorf("element 2 not stored on its owner: %d", bc.get(2))
			}
		}
		_ = g
		loc.Fence()
	})
}

func TestIndexedResolver(t *testing.T) {
	p := partition.NewBalanced(domain.NewRange1D(0, 100), 4)
	m := partition.NewBlockedMapper(4, 4)
	r := IndexedResolver{Partition: p, Mapper: m}
	info := r.Find(30)
	if !info.Valid || r.OwnerOf(info.BCID) != 1 {
		t.Fatalf("resolver wrong: %+v owner %d", info, r.OwnerOf(info.BCID))
	}
	// Closed-form partitions fail fast on out-of-domain GIDs rather than
	// silently forwarding to sub-domain 0.
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("out-of-domain GID should panic")
			}
		}()
		r.Find(-5)
	}()
}

// A registration may build something that registers in turn (a container
// family's operations constructing a helper container, say), so OncePerType
// must run each build once and tolerate builds nested across types.
func TestOncePerTypeRunsOnceAndNests(t *testing.T) {
	type inner struct{ n int }
	type outer struct{ in inner }
	builds := 0
	get := func() outer {
		return OncePerType(func() outer {
			builds++
			return outer{in: OncePerType(func() inner { builds++; return inner{n: 7} })}
		})
	}
	if a, b := get(), get(); a != b || a.in.n != 7 || builds != 2 {
		t.Fatalf("got %+v then %+v after %d builds, want the same value after 2", a, b, builds)
	}
}
