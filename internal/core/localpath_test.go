package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/domain"
	"repro/internal/partition"
	"repro/internal/runtime"
)

// Set and Range make testBC an IndexedStore, so the test container can run
// the shared indexed redistribution.
func (b *testBC) Set(gid int64, val int64) { b.set(gid, val) }
func (b *testBC) Range(fn func(gid int64, val int64) bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for k, v := range b.data {
		if !fn(k, v) {
			return
		}
	}
}

// redistribute moves the test container onto (part, mapper).  Collective.
func (c *testContainer) redistribute(part partition.Indexed, mapper partition.Mapper) {
	RedistributeIndexed[int64](&c.Container, part, mapper,
		func(b partition.BCID, _ domain.Range1D) *testBC { return newTestBC(b) },
		func(lm *LocationManager[*testBC]) {
			c.ReplaceLocationManager(lm)
			c.SetResolver(IndexedResolver{Partition: part, Mapper: mapper})
		})
}

func numLocks(t *BContainerLocking) int {
	n := 0
	if tab := t.locks.Load(); tab != nil {
		for _, l := range *tab {
			if l != nil {
				n++
			}
		}
	}
	return n
}

// TestLocksLiveAsLongAsTheirRegistryEntry is the regression test for the lock
// leak: the per-bContainer manager used to keep a lock for every BCID a
// location had ever stored, so each redistribution left the retired base
// containers' locks behind.
func TestLocksLiveAsLongAsTheirRegistryEntry(t *testing.T) {
	const n = 96
	run(4, func(loc *runtime.Location) {
		p := loc.NumLocations()
		dom := domain.NewRange1D(0, n)
		c := newTestContainer(loc, n, DefaultTraits())
		ths := c.ThreadSafety().(*BContainerLocking)
		for i := int64(0); i < n; i++ {
			if c.IsLocal(i) {
				c.Invoke(i, Write, func(_ *runtime.Location, bc *testBC) { bc.set(i, i+1) })
			}
		}
		loc.Fence()
		check := func(when string) {
			c.ForEachLocalBC(Read, func(*testBC) {}) // a lock is born on its base container's first bracket
			if got, want := numLocks(ths), c.LocationManager().NumBContainers(); got != want {
				t.Errorf("loc %d, %s: %d locks for %d base containers", loc.ID(), when, got, want)
			}
		}
		check("after construction and one access per base container")
		fine := partition.NewBlocked(dom, 4) // 24 sub-domains, dealt round robin
		coarse := partition.NewBalanced(dom, p)
		for round := 0; round < 5; round++ {
			c.redistribute(fine, partition.NewCyclicMapper(fine.NumSubdomains(), p))
			check(fmt.Sprintf("round %d there", round))
			c.redistribute(coarse, partition.NewBlockedMapper(coarse.NumSubdomains(), p))
			check(fmt.Sprintf("round %d back", round))
		}
		for i := int64(0); i < n; i += 7 {
			if got := c.InvokeRet(i, Read, func(_ *runtime.Location, bc *testBC) any { return bc.get(i) }); got.(int64) != i+1 {
				t.Errorf("element %d = %v after the round trips, want %d", i, got, i+1)
			}
		}
		loc.Fence()
	})
}

// TestRetainKeepsABusyLock pins the two rules that make dropping a lock safe:
// a held lock survives Retain, and DataAccessPost releases the lock
// DataAccessPre took even when Retain ran in between.
func TestRetainKeepsABusyLock(t *testing.T) {
	ths := NewBContainerLocking()
	ths.DataAccessPre(3, Read)
	ths.Retain([]partition.BCID{1})
	if ths.lock(3) == nil {
		t.Fatal("Retain dropped a held lock")
	}
	ths.DataAccessPost(3, Read)
	ths.Retain([]partition.BCID{1})
	if got := numLocks(ths); got != 0 {
		t.Fatalf("%d locks after the idle lock's Retain, want none", got)
	}
	// A writer and Retain racing over the same BCID never unlock a lock they
	// do not hold (the runtime would crash the test) and never deadlock.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				ths.DataAccessPre(5, Write)
				ths.DataAccessPost(5, Write)
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		ths.Retain([]partition.BCID{1})
	}
	wg.Wait()
}

// TestStorageGoneStillForwards covers the transient window of a
// redistribution: the metadata names this location as owner while the
// registry no longer holds the base container.  The access must continue as a
// forward to this location — never run on a missing base container — and must
// leave no lock behind when the chain gives up.
func TestStorageGoneStillForwards(t *testing.T) {
	run(2, func(loc *runtime.Location) {
		c := newTestContainer(loc, 20, DefaultTraits())
		gid := int64(loc.ID()) * 10
		stored := c.LocationManager()
		c.ReplaceLocationManager(NewLocationManager[*testBC]())
		if _, _, dest, local := c.enter(gid, Write, 0); local || dest != loc.ID() {
			t.Errorf("loc %d: enter = (dest %d, local %v), want a forward to this location", loc.ID(), dest, local)
		}
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "forwarded more than") {
					t.Errorf("loc %d: access to vanished storage ended with %q, want the hop limit", loc.ID(), msg)
				}
			}()
			c.InvokeRet(gid, Write, func(_ *runtime.Location, bc *testBC) any { return bc.get(gid) })
		}()
		// Storage back: the same access runs, and the metadata write bracket
		// that reinstalls it would have deadlocked on a leaked read bracket.
		c.ReplaceLocationManager(stored)
		c.Invoke(gid, Write, func(_ *runtime.Location, bc *testBC) { bc.set(gid, 5) })
		if got := c.InvokeRet(gid, Read, func(_ *runtime.Location, bc *testBC) any { return bc.get(gid) }); got.(int64) != 5 {
			t.Errorf("loc %d: element after the storage returned = %v", loc.ID(), got)
		}
		loc.Fence()
	})
}
