package passoc

import (
	"unsafe"

	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/partition"
)

// Key migration for pHashMap: an optional overlay on the shared distributed
// directory (core.Directory) that lets individual keys live away from their
// closed-form hash bucket — e.g. hot keys pulled next to the location that
// updates them — while every other key keeps the forwarding-free hashed
// resolution.
//
// The overlay records only exceptions.  A key's directory entry is homed on
// its closed-form hash owner, so resolving an unmigrated key costs exactly
// what it always did: the hash owner checks its (usually empty) exception
// slice with one map lookup and finds the key in its bucket.  A migrated
// key forwards from the hash owner to its actual bucket; repeat accesses
// from the same location skip that hop through the per-location resolution
// cache.

// migratingResolver wraps the hashed resolution with the exception overlay:
// closed form first, then the directory's authoritative slice on the hash
// owner, then the resolution cache elsewhere.
type migratingResolver[K comparable, V any] struct {
	h *HashMap[K, V]
}

func (r migratingResolver[K, V]) Find(k K) partition.Info {
	h := r.h
	info := h.part.Find(k)
	home := h.mapper.Map(info.BCID)
	self := h.Location().ID()
	if home == self {
		if owner, ok := h.dir.LocalEntry(k); ok {
			return partition.Found(owner) // exception: key migrated away
		}
		return info // ordinary local bucket
	}
	// The key may have been migrated TO this location.  Migrated keys are
	// always placed in a location's first bucket (firstLocalBucket), so one
	// map probe under the data read bracket settles it — without this check
	// a request for a key hosted here would forward back to the hash owner
	// and ping-pong.
	b := h.firstLocalBucket(self)
	if bc, ok := h.LocationManager().Get(b); ok {
		h.ThreadSafety().DataAccessPre(b, core.Read)
		_, hosted := bc.Find(k)
		h.ThreadSafety().DataAccessPost(b, core.Read)
		if hosted {
			return partition.Found(b)
		}
	}
	if cached, ok := h.dir.CachedResolve(k, home); ok {
		return cached
	}
	// Unknown here: ship to the hash owner, which re-resolves — one hop for
	// unmigrated keys (it owns the bucket), a forward for migrated ones.
	return partition.Forward(home)
}

func (r migratingResolver[K, V]) OwnerOf(b partition.BCID) int { return r.h.mapper.Map(b) }

// migratedPair is the element record shipped during key migration: a pair
// plus the bucket it currently lives in (unmigrated pairs stay there).
type migratedPair[K comparable, V any] struct {
	key  K
	val  V
	bcid partition.BCID
}

// requireKeyMigration panics when the overlay was not enabled.
func (h *HashMap[K, V]) requireKeyMigration(op string) {
	if h.dir == nil {
		panic("passoc: " + op + " requires key migration (HashOption.KeyMigration)")
	}
}

// firstLocalBucket returns the bucket receiving keys migrated to dest.
func (h *HashMap[K, V]) firstLocalBucket(dest int) partition.BCID {
	ids := h.mapper.LocalBCIDs(dest)
	if len(ids) == 0 {
		panic("passoc: destination location owns no hash bucket")
	}
	return ids[0]
}

// MigrateKeys moves the named keys into a bucket owned by the given
// destination location, recording them as exceptions in the distributed
// directory; their values stay reachable under the same keys from every
// location, and repeat accesses from one location resolve through its
// cache.  Collective — every location passes the keys it wants moved (the
// union is applied) and the container must be quiescent.  Migrating a key
// to its own hash owner effectively undoes an earlier migration.
func (h *HashMap[K, V]) MigrateKeys(keys []K, dest int) {
	h.requireKeyMigration("MigrateKeys")
	loc := h.Location()
	moves := make(map[K]int, len(keys))
	for _, k := range keys {
		moves[k] = dest
	}
	var probe migratedPair[K, V]
	elemBytes := int(unsafe.Sizeof(probe))
	core.MigrateElements(loc, h.dir, moves, core.DirectoryMigration[migratedPair[K, V], K, *bcontainer.HashMap[K, V]]{
		NewLocal: h.mapper.LocalBCIDs(loc.ID()),
		DestBC:   h.firstLocalBucket,
		Keep: func(e migratedPair[K, V]) (partition.BCID, int) {
			return e.bcid, h.mapper.Map(e.bcid)
		},
		Alloc: func(b partition.BCID) *bcontainer.HashMap[K, V] {
			return bcontainer.NewHashMap[K, V](b)
		},
		Enumerate: func(emit func(migratedPair[K, V])) {
			h.ForEachLocalBC(core.Read, func(bc *bcontainer.HashMap[K, V]) {
				b := bc.BCID()
				bc.Range(func(k K, v V) bool {
					emit(migratedPair[K, V]{key: k, val: v, bcid: b})
					return true
				})
			})
		},
		GID:   func(e migratedPair[K, V]) K { return e.key },
		Place: func(bc *bcontainer.HashMap[K, V], e migratedPair[K, V]) { bc.Insert(e.key, e.val) },
		Bytes: func(migratedPair[K, V]) int { return elemBytes },
		Ops:   core.MigrationOpsOf[migratedPair[K, V]](),
		Install: func(lm *core.LocationManager[*bcontainer.HashMap[K, V]]) {
			h.ReplaceLocationManager(lm)
		},
	})
}

// KeyDirectory exposes the exception directory of the key-migration overlay
// (nil when the overlay is disabled); tests and experiments use it to
// inspect cache behaviour.
func (h *HashMap[K, V]) KeyDirectory() *core.Directory[K] { return h.dir }
