// Package passoc implements the STAPL associative pContainers
// (Chapter XII): unordered pHashMap / pHashSet distributed by key hashing,
// the ordered pMap distributed by key ranges (value-based partition), and a
// pMultiMap storing several values per key.
//
// Associative containers are dynamic pContainers whose GIDs are the keys
// themselves; the partition has a closed form (hash or splitter search), so
// element methods never need forwarding.
package passoc

import (
	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/runtime"
)

// hashResolver routes keys through a hashed partition.
type hashResolver[K comparable] struct {
	part   *partition.Hashed[K]
	mapper partition.Mapper
}

func (r hashResolver[K]) Find(k K) partition.Info      { return r.part.Find(k) }
func (r hashResolver[K]) OwnerOf(b partition.BCID) int { return r.mapper.Map(b) }

// HashMap is the per-location representative of a pHashMap: an unordered
// pair-associative pContainer with amortised O(1) element methods.
type HashMap[K comparable, V any] struct {
	core.Container[K, *bcontainer.HashMap[K, V]]

	part   *partition.Hashed[K]
	mapper partition.Mapper

	// ops are the registered element operations for this (K, V) pair.  See
	// ops.go.
	ops *hashOps[K, V]

	// dir is the exception overlay of the key-migration option (see
	// migrate.go); nil when the overlay is disabled.
	dir *core.Directory[K]
}

// HashOption customises pHashMap construction.
type HashOption struct {
	// SubdomainsPerLocation sets how many hash buckets (bContainers) each
	// location owns; the default is 1.
	SubdomainsPerLocation int
	// KeyMigration enables the directory-backed key-migration overlay:
	// MigrateKeys can move individual keys away from their hash bucket, and
	// lookups of migrated keys are served through the shared distributed
	// directory with per-location resolution caching (see migrate.go).
	KeyMigration bool
	// Traits overrides the default container traits.
	Traits *core.Traits
}

// NewHashMap constructs an empty pHashMap distributed by hashing keys with
// hash.  Collective.
func NewHashMap[K comparable, V any](loc *runtime.Location, hash func(K) uint64, opt ...HashOption) *HashMap[K, V] {
	var o HashOption
	if len(opt) > 0 {
		o = opt[0]
	}
	per := o.SubdomainsPerLocation
	if per <= 0 {
		per = 1
	}
	traits := core.DefaultTraits()
	if o.Traits != nil {
		traits = *o.Traits
	}
	p := loc.NumLocations()
	part := partition.NewHashed[K](p*per, hash)
	mapper := partition.NewBlockedMapper(part.NumSubdomains(), p)
	h := &HashMap[K, V]{part: part, mapper: mapper, ops: hashOpsFor[K, V]()}
	if o.KeyMigration {
		h.InitContainer(loc, migratingResolver[K, V]{h: h}, traits)
		// The exception entry for a key is homed on its closed-form hash
		// owner, so unmigrated keys never pay an extra hop (their first
		// remote access per location and epoch additionally triggers one
		// negative cache fill, after which the overlay is silent for them);
		// the home and owner functions read the live partition metadata,
		// following Redistribute's mapper swaps.
		h.dir = core.NewDirectory(loc, core.DirectoryConfig[K]{
			Home:     func(k K) int { return h.mapper.Map(h.part.Find(k).BCID) },
			OwnerLoc: func(b partition.BCID) int { return h.mapper.Map(b) },
			Cache:    true,
		})
	} else {
		h.InitContainer(loc, hashResolver[K]{part: part, mapper: mapper}, traits)
	}
	for _, b := range mapper.LocalBCIDs(loc.ID()) {
		h.LocationManager().Add(bcontainer.NewHashMap[K, V](b))
	}
	// Constructors are collective: wait for every representative.
	loc.Barrier()
	return h
}

// Insert stores (k, v) asynchronously, overwriting any existing value.
func (h *HashMap[K, V]) Insert(k K, v V) {
	h.ops.insert.Async(&h.Container, k, v, runtime.PayloadBytes(v))
}

// InsertSync stores (k, v) and reports whether the key was newly inserted.
func (h *HashMap[K, V]) InsertSync(k K, v V) bool {
	out := h.InvokeRet(k, core.Write, func(_ *runtime.Location, bc *bcontainer.HashMap[K, V]) any {
		return bc.Insert(k, v)
	})
	return out.(bool)
}

// InsertIfAbsent stores (k, v) only when the key is absent and reports
// whether it inserted.  Synchronous.
func (h *HashMap[K, V]) InsertIfAbsent(k K, v V) bool {
	out := h.InvokeRet(k, core.Write, func(_ *runtime.Location, bc *bcontainer.HashMap[K, V]) any {
		return bc.InsertIfAbsent(k, v)
	})
	return out.(bool)
}

// findResult is a find's result as one value: what a remote find's reply
// carries.
type findResult[V any] struct {
	val V
	ok  bool
}

// Find returns the value stored under k (synchronous), with ok reporting
// whether the key exists (the paper's find_val).
func (h *HashMap[K, V]) Find(k K) (V, bool) {
	out := h.ops.find.Sync(&h.Container, k, struct{}{})
	return out.val, out.ok
}

// FindSplit starts a split-phase find of k (the paper's split_phase_find); an
// absent key yields the zero value.
func (h *HashMap[K, V]) FindSplit(k K) *runtime.FutureOf[V] {
	return runtime.MapFuture(h.ops.find.Split(&h.Container, k, struct{}{}),
		func(v any) V { return v.(findResult[V]).val })
}

// Contains reports whether k is present.  Synchronous.
func (h *HashMap[K, V]) Contains(k K) bool {
	_, ok := h.Find(k)
	return ok
}

// EraseAsync removes k asynchronously (the paper's erase_async).
func (h *HashMap[K, V]) EraseAsync(k K) {
	h.Invoke(k, core.Write, func(_ *runtime.Location, bc *bcontainer.HashMap[K, V]) { bc.Erase(k) })
}

// Erase removes k and reports whether it was present.  Synchronous.
func (h *HashMap[K, V]) Erase(k K) bool {
	out := h.InvokeRet(k, core.Write, func(_ *runtime.Location, bc *bcontainer.HashMap[K, V]) any { return bc.Erase(k) })
	return out.(bool)
}

// Apply applies fn to the value stored under k (starting from the zero value
// when absent) and stores the result, asynchronously.  Concurrent Apply
// calls to the same key are atomic, which makes it the natural reduction
// primitive for MapReduce-style aggregation.
func (h *HashMap[K, V]) Apply(k K, fn func(V) V) {
	h.Invoke(k, core.Write, func(_ *runtime.Location, bc *bcontainer.HashMap[K, V]) { bc.Apply(k, fn) })
}

// InsertBulk stores every (keys[k], vals[k]) pair asynchronously,
// overwriting existing values.  The batch is hashed and grouped once and
// shipped as one sized RMI per owning location — the fast path for loading a
// pHashMap from a local slice (MapReduce emit, word count, ...).  Groups
// shipped to other locations copy their share, so neither slice is retained
// past the call.
func (h *HashMap[K, V]) InsertBulk(keys []K, vals []V) {
	if len(keys) != len(vals) {
		panic("passoc: InsertBulk key/value length mismatch")
	}
	if len(keys) == 0 {
		return
	}
	bytesPerOp := runtime.PayloadBytes(keys[0]) + runtime.PayloadBytes(vals[0])
	h.ops.insert.BulkAsync(&h.Container, keys, vals, bytesPerOp)
}

// FindBulk looks up every key and returns the values and presence flags, in
// key order (synchronous; one round trip per owning location).
func (h *HashMap[K, V]) FindBulk(keys []K) ([]V, []bool) {
	found := make([]findResult[V], len(keys))
	h.ops.find.BulkSync(&h.Container, keys, nil, found, 8)
	vals := make([]V, len(keys))
	oks := make([]bool, len(keys))
	for k, f := range found {
		vals[k], oks[k] = f.val, f.ok
	}
	return vals, oks
}

// ApplyBulk applies fn to the value stored under every key (starting from
// the zero value when absent) and stores the results, asynchronously — the
// bulk counterpart of Apply, and the natural sink for pre-combined
// per-location reduction maps.  The request carries the caller's fn, not
// copies: keys and whatever fn captures are retained until the operations
// execute; do not mutate them before the next Fence.
func (h *HashMap[K, V]) ApplyBulk(keys []K, fn func(V) V) {
	if len(keys) == 0 {
		return
	}
	h.InvokeBulk(keys, core.Write, runtime.PayloadBytes(keys[0]), func(_ *runtime.Location, bc *bcontainer.HashMap[K, V], k int) {
		bc.Apply(keys[k], fn)
	})
}

// Size returns the global number of pairs.  Collective.
func (h *HashMap[K, V]) Size() int64 { return h.GlobalSize() }

// LocalRange applies fn to every locally stored pair (unspecified order).
func (h *HashMap[K, V]) LocalRange(fn func(k K, v V) bool) {
	h.ForEachLocalBC(core.Read, func(bc *bcontainer.HashMap[K, V]) { bc.Range(fn) })
}

// Clear removes all local pairs.  Call collectively (typically between
// fences) to clear the whole container.
func (h *HashMap[K, V]) Clear() {
	h.ForEachLocalBC(core.Write, func(bc *bcontainer.HashMap[K, V]) { bc.Clear() })
}

// MemorySize returns the container-wide footprint.  Collective.
func (h *HashMap[K, V]) MemorySize() core.MemoryUsage {
	return h.GlobalMemory(partition.MemoryBytes(h.mapper) + 32)
}
