package plist

import (
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/runtime"
)

// mustPanic asserts that fn panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("expected panic containing %q", want)
			return
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Errorf("panic = %v, want message containing %q", r, want)
		}
	}()
	fn()
}

func TestListInvalidGIDFailsFast(t *testing.T) {
	run(2, func(loc *runtime.Location) {
		plain := New[int](loc)
		backed := New[int](loc, WithDirectory())
		loc.Barrier()
		if loc.ID() == 0 {
			// Get(InvalidGID) used to return partition.Forward(0) and
			// ping-pong until the forward-hop limit panicked; now the
			// resolver fails fast with a clear error.
			mustPanic(t, "invalid GID", func() { plain.Get(InvalidGID) })
			mustPanic(t, "invalid GID", func() { backed.Get(InvalidGID) })
			mustPanic(t, "invalid GID", func() { plain.InsertAsync(GID{Loc: -3, ID: 1}, 9) })
			mustPanic(t, "invalid GID", func() { plain.Set(InvalidGID, 9) })
			mustPanic(t, "invalid GID", func() { backed.Set(InvalidGID, 9) })
			mustPanic(t, "invalid GID", func() { backed.Insert(InvalidGID, 9) })
		}
		loc.Barrier()
		// Nor the data bracket: a write to a local element takes the base
		// container's lock exclusively.
		for _, l := range []*List[int]{plain, backed} {
			g := l.PushAnywhere(1)
			l.Set(g, 2)
			if got := l.Get(g); got != 2 {
				t.Errorf("local write after the recovered panics read back %d", got)
			}
			l.Erase(g)
		}
		loc.Fence()
		// The fail-fast panic must not leak the metadata read bracket: a
		// later collective that takes the metadata write lock (rebalance
		// installs a new location manager) would deadlock if it did.
		backed.PushAnywhere(loc.ID())
		loc.Fence()
		backed.Rebalance()
		if got := backed.Size(); got != int64(loc.NumLocations()) {
			t.Errorf("size after post-recovery rebalance = %d", got)
		}
		loc.Fence()
	})
}

func TestListDirectoryModeBasicOps(t *testing.T) {
	run(4, func(loc *runtime.Location) {
		l := New[int](loc, WithDirectory())
		if !l.DirectoryBacked() || l.Directory() == nil {
			t.Fatal("directory mode not active")
		}
		const perLoc = 20
		gids := make([]GID, perLoc)
		for i := range gids {
			gids[i] = l.PushAnywhere(loc.ID()*1000 + i)
		}
		loc.Fence()
		if got := l.Size(); got != int64(perLoc*loc.NumLocations()) {
			t.Errorf("size = %d", got)
		}
		// Every location can read every other location's elements through
		// the directory (forwarding through the GID's home).
		all := runtime.AllGatherT(loc, gids)
		for owner, list := range all {
			for i, g := range list {
				if got := l.Get(g); got != owner*1000+i {
					t.Errorf("Get(%v) = %d, want %d", g, got, owner*1000+i)
				}
			}
		}
		loc.Barrier()
		// Remote mutation: every location bumps the first element of the
		// next location.
		next := all[(loc.ID()+1)%loc.NumLocations()]
		l.Apply(next[0], func(x int) int { return x + 7 })
		loc.Fence()
		if got := l.Get(gids[0]); got != loc.ID()*1000+7 {
			t.Errorf("after remote applies Get = %d", got)
		}
		loc.Barrier()
		// Insert before a remote element and erase it again.
		if loc.ID() == 0 {
			mid := l.Insert(next[1], -1)
			if !mid.Valid() {
				t.Error("insert returned invalid GID")
			}
			if got := l.Get(mid); got != -1 {
				t.Errorf("Get(inserted) = %d", got)
			}
			l.Erase(mid)
		}
		loc.Fence()
		if got := l.Size(); got != int64(perLoc*loc.NumLocations()) {
			t.Errorf("size after insert+erase = %d", got)
		}
		loc.Fence()
	})
}

func TestListDirectoryModeEndsAndTraversal(t *testing.T) {
	run(3, func(loc *runtime.Location) {
		l := New[string](loc, WithDirectory())
		loc.Barrier()
		if loc.ID() == 1 {
			l.PushFront("front")
			l.PushBack("back")
		}
		loc.Fence()
		if loc.ID() == 0 {
			if vals := l.LocalValues(); len(vals) != 1 || vals[0] != "front" {
				t.Errorf("location 0 values = %v", vals)
			}
		}
		if loc.ID() == 2 {
			if vals := l.LocalValues(); len(vals) != 1 || vals[0] != "back" {
				t.Errorf("last location values = %v", vals)
			}
		}
		loc.Barrier()
		// Global traversal crosses the segments in storage order.
		if loc.ID() == 2 {
			var seen []string
			for g := l.Begin(); g.Valid(); g = l.Next(g) {
				seen = append(seen, l.Get(g))
			}
			if len(seen) != 2 || seen[0] != "front" || seen[1] != "back" {
				t.Errorf("traversal = %v", seen)
			}
		}
		loc.Fence()
	})
}

func TestListMigrateElementsKeepsGIDs(t *testing.T) {
	run(4, func(loc *runtime.Location) {
		l := New[int](loc, WithDirectory())
		const perLoc = 10
		gids := make([]GID, perLoc)
		for i := range gids {
			gids[i] = l.PushAnywhere(loc.ID()*100 + i)
		}
		loc.Fence()
		// Location 0 pulls the first half of location 3's elements to
		// location 1; everyone else requests nothing.
		all := runtime.AllGatherT(loc, gids)
		var moves []GID
		if loc.ID() == 0 {
			moves = all[3][:perLoc/2]
		}
		l.MigrateElements(moves, 1)
		if got := l.Size(); got != int64(perLoc*loc.NumLocations()) {
			t.Errorf("size after migration = %d", got)
		}
		if loc.ID() == 1 {
			if n := l.LocalSize(); n != perLoc+perLoc/2 {
				t.Errorf("destination holds %d elements, want %d", n, perLoc+perLoc/2)
			}
		}
		if loc.ID() == 3 {
			if n := l.LocalSize(); n != perLoc/2 {
				t.Errorf("source still holds %d elements, want %d", n, perLoc/2)
			}
		}
		loc.Barrier()
		// Every old GID still resolves to its value, from every location.
		for owner, list := range all {
			for i, g := range list {
				if got := l.Get(g); got != owner*100+i {
					t.Errorf("after migration Get(%v) = %d, want %d", g, got, owner*100+i)
				}
			}
		}
		loc.Fence()
	})
}

func TestListCacheInvalidationAfterMigration(t *testing.T) {
	run(4, func(loc *runtime.Location) {
		l := New[int](loc, WithDirectory())
		var gids []GID
		if loc.ID() == 3 {
			for i := 0; i < 8; i++ {
				gids = append(gids, l.PushAnywhere(100+i))
			}
		}
		loc.Fence()
		all := runtime.AllGatherT(loc, gids)
		targets := all[3]
		// Warm every location's cache on the elements.
		for _, g := range targets {
			if got := l.Get(g); got < 100 {
				t.Errorf("warm-up Get(%v) = %d", g, got)
			}
		}
		loc.Fence()
		if loc.ID() != 3 {
			if hits, misses, _ := l.Directory().CacheStats(); hits+misses == 0 {
				t.Error("cache never consulted during warm-up")
			}
		}
		// Move the elements to location 0; warm cache entries naming
		// location 3 must not produce stale reads.
		var moves []GID
		if loc.ID() == 1 {
			moves = targets
		}
		l.MigrateElements(moves, 0)
		if loc.ID() == 0 {
			if n := l.LocalSize(); n != int64(len(targets)) {
				t.Errorf("destination holds %d elements", n)
			}
		}
		loc.Barrier()
		for i, g := range targets {
			if got := l.Get(g); got != 100+i {
				t.Errorf("stale read after migration: Get(%v) = %d, want %d", g, got, 100+i)
			}
		}
		loc.Fence()
		// The directory now names the new owner for every moved element.
		for _, g := range targets {
			if owner, ok := l.Directory().LookupOwner(g); !ok || owner != 0 {
				t.Errorf("directory entry for %v = %d,%v, want 0", g, owner, ok)
			}
		}
		loc.Fence()
	})
}

func TestListMigrateAllLocalAndEmpty(t *testing.T) {
	run(3, func(loc *runtime.Location) {
		l := New[int](loc, WithDirectory())
		gid := l.PushAnywhere(loc.ID())
		loc.Fence()
		// All-local migration: destination == current owner.  No element
		// moves, no entry changes, everything still resolves.
		l.MigrateElements([]GID{gid}, loc.ID())
		if got := l.Get(gid); got != loc.ID() {
			t.Errorf("all-local migration lost element: %d", got)
		}
		// Empty request set on every location is a no-op round.
		l.MigrateElements(nil, 0)
		if got := l.Size(); got != int64(loc.NumLocations()) {
			t.Errorf("size after empty migration = %d", got)
		}
		loc.Fence()
	})
}

func TestListRebalanceSkewed(t *testing.T) {
	run(4, func(loc *runtime.Location) {
		l := New[int](loc, WithDirectory())
		// Location 0 holds everything: maximal skew.
		const n = 120
		var gids []GID
		if loc.ID() == 0 {
			for i := 0; i < n; i++ {
				gids = append(gids, l.PushAnywhere(i))
			}
		}
		loc.Fence()
		before := partition.CollectLoad(loc, l.LocalSize())
		if before.Imbalance() < 3.9 {
			t.Errorf("skew not established: imbalance %.2f", before.Imbalance())
		}
		l.Rebalance()
		after := partition.CollectLoad(loc, l.LocalSize())
		if after.Imbalance() > 1.1 {
			t.Errorf("imbalance after rebalance = %.2fx, want <= 1.1x", after.Imbalance())
		}
		loc.Barrier()
		// Old GIDs keep resolving to their values from every location.
		all := runtime.AllGatherT(loc, gids)
		for i, g := range all[0] {
			if got := l.Get(g); got != i {
				t.Errorf("after rebalance Get(%v) = %d, want %d", g, got, i)
			}
		}
		loc.Fence()
	})
}

func TestListRebalanceEmptyAndRedistributeValidation(t *testing.T) {
	run(3, func(loc *runtime.Location) {
		l := New[int](loc, WithDirectory())
		loc.Fence()
		// Empty directory / empty list: a rebalance round is a no-op.
		l.Rebalance()
		if got := l.Size(); got != 0 {
			t.Errorf("size after empty rebalance = %d", got)
		}
		loc.Barrier()
		mustPanic(t, "target counts", func() { l.Redistribute([]int64{1, 0, 0}) })
		loc.Fence()
	})
}

func TestListEncodedModeRejectsMigration(t *testing.T) {
	run(2, func(loc *runtime.Location) {
		l := New[int](loc)
		loc.Fence()
		mustPanic(t, "directory-backed", func() { l.Rebalance() })
		mustPanic(t, "directory-backed", func() { l.MigrateElements(nil, 0) })
		loc.Fence()
	})
}
