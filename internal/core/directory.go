package core

import (
	"sync"

	"repro/internal/partition"
	"repro/internal/runtime"
)

// This file implements the shared distributed-directory subsystem: the
// second of the paper's two GID-resolution schemes (Table X).  Where a
// computable partition translates a GID with a closed form, a directory
// records ownership explicitly, sliced over the locations by a home hash:
// location hash(gid) % P holds the authoritative entry for gid.  Resolving a
// non-local GID forwards the request through the home location to the owner
// (the method-forwarding path of Fig. 7).
//
// The subsystem used to live inside pGraph as an ad-hoc map; hoisting it
// here gives every dynamic container the same three services:
//
//   - an ownership registry with asynchronous Publish / PublishBulk /
//     Unpublish / Update maintenance (PublishBulk batches entries per home
//     location, one bulk RMI each);
//   - a Resolve building block for core.Resolver implementations, with an
//     optional per-location resolution cache: once a location has learned a
//     remote GID's owner, repeat accesses skip the directory hop and ship
//     straight to the owner.  Cache entries are invalidated by a per-location
//     epoch — redistribution, element migration and ownership updates bump
//     it — and a cached resolution is marked partition.FoundCached, so a
//     stale entry costs at most one extra forward (the destination's resolver
//     re-validates local presence), never a wrong answer;
//   - MigrateElements, layered on RunMigration: a collective service that
//     moves individually named elements to explicit destinations, republishes
//     their directory entries from the new owners and invalidates every
//     location's cache.
//
// Directory maintenance traffic is attributed to the machine's DirectoryRMIs
// statistic, so experiments can separate metadata from element traffic.

// DirectoryConfig configures a Directory.
type DirectoryConfig[G comparable] struct {
	// Hash buckets GIDs over home locations (required unless Home is set).
	Hash func(G) uint64
	// Home overrides the home-location function (default hash % P).  The
	// pHashMap overlay uses it to co-locate a key's directory entry with the
	// key's closed-form hash owner.
	Home func(gid G) int
	// Cache enables the per-location resolution cache.
	Cache bool
	// OwnerLoc maps a stored owner BCID to its location (default identity,
	// the layout of location-keyed containers like pGraph and pList).
	OwnerLoc func(b partition.BCID) int
}

// Directory is the per-location representative of a distributed directory
// keyed by GID type G.  Construction is collective (SPMD discipline): every
// location must call NewDirectory at the same point of its construction
// sequence so all representatives share an RTS handle.
type Directory[G comparable] struct {
	loc      *runtime.Location
	handle   runtime.Handle
	home     func(G) int
	ownerLoc func(b partition.BCID) int
	cacheOn  bool

	// ops is the registered-operation set for this GID type.
	ops *dirOps[G]

	// entries is the slice of the gid → owner map this location is home for.
	mu      sync.RWMutex
	entries map[G]partition.BCID

	// Resolution cache.  epoch counts invalidations; the cache only ever
	// holds entries learned at the current epoch (BumpEpoch clears it), and
	// in-flight fills carry the epoch they were requested at so fills that
	// straddle an invalidation are dropped.  pending de-duplicates concurrent
	// fill requests for the same GID.
	cacheMu sync.Mutex
	cache   map[G]partition.BCID
	pending map[G]struct{}
	epoch   uint64
	hits    int64
	misses  int64
}

// NewDirectory constructs a directory representative.  Collective; callers
// synchronise construction (the containers' constructors end with a barrier).
func NewDirectory[G comparable](loc *runtime.Location, cfg DirectoryConfig[G]) *Directory[G] {
	d := &Directory[G]{
		loc:      loc,
		home:     cfg.Home,
		ownerLoc: cfg.OwnerLoc,
		cacheOn:  cfg.Cache,
		ops:      dirOpsFor[G](),
		entries:  make(map[G]partition.BCID),
	}
	if d.home == nil {
		if cfg.Hash == nil {
			panic("core: DirectoryConfig needs Hash or Home")
		}
		p := uint64(loc.NumLocations())
		hash := cfg.Hash
		d.home = func(gid G) int { return int(hash(gid) % p) }
	}
	if d.ownerLoc == nil {
		d.ownerLoc = func(b partition.BCID) int { return int(b) }
	}
	if d.cacheOn {
		d.cache = make(map[G]partition.BCID)
		d.pending = make(map[G]struct{})
	}
	d.handle = loc.RegisterObject(d)
	return d
}

// Destroy unregisters the representative.  Collective, like construction.
func (d *Directory[G]) Destroy() { d.loc.UnregisterObject(d.handle) }

// HomeOf returns the location holding the authoritative entry for gid.
func (d *Directory[G]) HomeOf(gid G) int { return d.home(gid) }

// set installs an entry in the local slice of the registry.
func (d *Directory[G]) set(gid G, owner partition.BCID) {
	d.mu.Lock()
	d.entries[gid] = owner
	d.mu.Unlock()
}

// Publish records gid's owner in the directory, asynchronously; the entry is
// globally visible by the next fence.  New GIDs need no cache invalidation:
// no location can hold a cache entry for a GID that never resolved.
func (d *Directory[G]) Publish(gid G, owner partition.BCID) {
	home := d.home(gid)
	if home == d.loc.ID() {
		d.set(gid, owner)
		return
	}
	d.loc.AccountDirectoryRMI(1)
	d.loc.AsyncRMIOpSized(home, d.handle, 0, d.ops.publish, dirEntryArgs[G]{gid: gid, owner: owner})
}

// PublishBulk records one owner for every GID of the batch, grouping the
// entries by home location and shipping one bulk RMI per home — the batched
// counterpart of Publish used by bulk loaders and by element migration.
// Asynchronous; the batch slice is retained until delivery.
func (d *Directory[G]) PublishBulk(gids []G, owner partition.BCID) {
	if len(gids) == 0 {
		return
	}
	self := d.loc.ID()
	byHome := make(map[int][]G)
	for _, gid := range gids {
		h := d.home(gid)
		byHome[h] = append(byHome[h], gid)
	}
	for home, group := range byHome {
		if home == self {
			d.mu.Lock()
			for _, gid := range group {
				d.entries[gid] = owner
			}
			d.mu.Unlock()
			continue
		}
		d.loc.AccountDirectoryRMI(1)
		d.loc.AsyncRMIBulkOp(home, d.handle, len(group), 16*len(group), d.ops.publishBulk,
			dirBulkArgs[G]{gids: group, owner: owner})
	}
}

// Unpublish removes gid's entry, asynchronously (element deletion).  Stale
// caches recover through the home: a request shipped to the old owner misses
// there and forwards to the home, whose missing entry makes the home the
// owner of record, exactly like a never-published GID.
func (d *Directory[G]) Unpublish(gid G) {
	home := d.home(gid)
	if home == d.loc.ID() {
		d.erase(gid)
		return
	}
	d.loc.AccountDirectoryRMI(1)
	d.loc.AsyncRMIOpSized(home, d.handle, 0, d.ops.unpublish, dirEntryArgs[G]{gid: gid})
}

// erase removes an entry from the local slice of the registry.
func (d *Directory[G]) erase(gid G) {
	d.mu.Lock()
	delete(d.entries, gid)
	d.mu.Unlock()
}

// Update replaces gid's owner after an ownership change and bumps every
// location's cache epoch so stale cached resolutions die, asynchronously
// (visible by the next fence).  Collective ownership changes (MigrateElements,
// container redistribution) bump epochs locally inside their protocol instead
// of paying the broadcast.
//
// The bump broadcast is issued BY THE HOME, after it installed the new
// entry, which closes the fill/update race: a fill requested at the new
// epoch can only have been triggered after its location received the bump,
// which the home sent after the install — per-pair FIFO then guarantees the
// home answers that fill with the new owner.  A fill answered with the old
// owner necessarily carries the old epoch and dies at install (or is wiped
// by the arriving bump).
func (d *Directory[G]) Update(gid G, owner partition.BCID) {
	home := d.home(gid)
	if home == d.loc.ID() {
		d.applyUpdate(gid, owner)
		return
	}
	d.loc.AccountDirectoryRMI(1)
	d.loc.AsyncRMIOpSized(home, d.handle, 0, d.ops.update, dirEntryArgs[G]{gid: gid, owner: owner})
}

// applyUpdate runs Update's home-side half: install the new entry, then
// broadcast the epoch bump (see Update's ordering argument).
func (d *Directory[G]) applyUpdate(gid G, owner partition.BCID) {
	d.set(gid, owner)
	self := d.loc.ID()
	for dest := 0; dest < d.loc.NumLocations(); dest++ {
		if dest == self {
			d.BumpEpoch()
			continue
		}
		d.loc.AccountDirectoryRMI(1)
		d.loc.AsyncRMIOpSized(dest, d.handle, 0, d.ops.bump, struct{}{})
	}
}

// BumpEpoch invalidates this location's resolution cache.  Collective
// protocols that change ownership (redistribution, migration) call it on
// every location inside their synchronised section.
func (d *Directory[G]) BumpEpoch() {
	if !d.cacheOn {
		return
	}
	d.cacheMu.Lock()
	d.epoch++
	clear(d.cache)
	d.cacheMu.Unlock()
}

// Epoch returns the current cache epoch (diagnostics and tests).
func (d *Directory[G]) Epoch() uint64 {
	if !d.cacheOn {
		return 0
	}
	d.cacheMu.Lock()
	defer d.cacheMu.Unlock()
	return d.epoch
}

// CacheStats returns the cache hit/miss counters and current entry count.
func (d *Directory[G]) CacheStats() (hits, misses, size int64) {
	if !d.cacheOn {
		return 0, 0, 0
	}
	d.cacheMu.Lock()
	defer d.cacheMu.Unlock()
	return d.hits, d.misses, int64(len(d.cache))
}

// Resolve translates gid for a container resolver, after the container's own
// local fast path failed.  On the home location it consults the
// authoritative slice: a missing entry resolves to the home itself as owner
// of record, so the caller's action observes a missing element there.
// Elsewhere it consults the resolution cache — a hit ships straight to the
// cached owner (FoundCached, one hop), a miss forwards through the home
// (two hops) and starts an asynchronous cache fill so the next access hits.
func (d *Directory[G]) Resolve(gid G) partition.Info {
	self := d.loc.ID()
	home := d.home(gid)
	if home == self {
		if owner, ok := d.LocalEntry(gid); ok {
			return partition.Found(owner)
		}
		return partition.Found(partition.BCID(self))
	}
	if info, ok := d.CachedResolve(gid, home); ok {
		return info
	}
	return partition.Forward(home)
}

// LocalEntry returns the authoritative entry for a gid this location is home
// for (overlay resolvers consult it directly when the home coincides with a
// closed-form owner).
func (d *Directory[G]) LocalEntry(gid G) (partition.BCID, bool) {
	d.mu.RLock()
	owner, ok := d.entries[gid]
	d.mu.RUnlock()
	return owner, ok
}

// CachedResolve probes the resolution cache for a gid homed on another
// location.  A positive hit returns the cached owner (marked FoundCached).
// A negative hit — the home answered an earlier fill with "no entry", so
// the gid resolves by whatever the home's closed form or owner-of-record
// rule says — returns false without re-requesting, so unmigrated keys and
// missing elements do not generate a fill per access.  A cold miss records
// it, starts an asynchronous fill from the home, and returns false; the
// caller forwards to the home as if uncached.
func (d *Directory[G]) CachedResolve(gid G, home int) (partition.Info, bool) {
	if !d.cacheOn {
		return partition.Info{}, false
	}
	self := d.loc.ID()
	d.cacheMu.Lock()
	owner, ok := d.cache[gid]
	if ok && owner == partition.InvalidBCID {
		// Negative entry: forward to the home, but spawn no new fill.
		d.cacheMu.Unlock()
		return partition.Info{}, false
	}
	if ok && d.ownerLoc(owner) == self {
		// CachedResolve only runs after the local fast path missed, so a
		// self-pointing entry is stale (the element moved away): drop it
		// and fall through to the home.
		delete(d.cache, gid)
		ok = false
	}
	if ok {
		d.hits++
		d.cacheMu.Unlock()
		return partition.FoundCached(owner), true
	}
	d.misses++
	fill := false
	if _, inFlight := d.pending[gid]; !inFlight {
		d.pending[gid] = struct{}{}
		fill = true
	}
	epoch := d.epoch
	d.cacheMu.Unlock()
	if fill {
		d.requestFill(gid, home, epoch)
	}
	return partition.Info{}, false
}

// Reset drops every authoritative entry this location is home for and
// invalidates the cache.  Collective redistributions that snap all elements
// back to closed-form placement call it on every location inside their
// synchronised install phase.
func (d *Directory[G]) Reset() {
	d.mu.Lock()
	clear(d.entries)
	d.mu.Unlock()
	d.BumpEpoch()
}

// fillReplyBytes is the simulated marshalled size of a cache-fill answer
// (gid hash slot + owner).
const fillReplyBytes = 16

// requestFill asks the home for gid's owner and installs the answer in this
// location's cache, off the critical path of the access that missed.  The
// request rides the aggregation buffer, so it is delivered just ahead of the
// forwarded access that triggered it (same destination, FIFO).  The answer
// is a small response message; like the split-phase completion path it is
// routed through shared memory (the home installs the entry directly into
// the origin's representative, whose cache lock makes that safe) and
// accounted explicitly — by the time the forwarded access reaches the
// element's owner, the origin's cache is already warm, so the very next
// access skips the directory hop.
func (d *Directory[G]) requestFill(gid G, home int, epoch uint64) {
	origin := d.loc.ID()
	d.loc.AccountDirectoryRMI(1)
	d.loc.AsyncRMI(home, d.handle, func(obj any, hloc *runtime.Location) {
		hd := obj.(*Directory[G])
		hd.mu.RLock()
		owner, ok := hd.entries[gid]
		hd.mu.RUnlock()
		od := hloc.Machine().Location(origin).Object(hd.handle).(*Directory[G])
		od.fill(gid, owner, ok, epoch)
		hloc.AccountDirectoryRMI(1)
		hloc.AccountReply(fillReplyBytes)
	})
}

// Prime seeds this location's resolution cache with a resolution the caller
// just learned first-hand — typically the storage location carried back by a
// synchronous reply (e.g. pList.Insert returns the new element's placement).
// It gives the caller read-your-writes behaviour before the asynchronous
// Publish reaches the home; a no-op when the cache is disabled.
func (d *Directory[G]) Prime(gid G, owner partition.BCID) {
	if !d.cacheOn || d.ownerLoc(owner) == d.loc.ID() {
		return
	}
	d.cacheMu.Lock()
	d.cache[gid] = owner
	d.cacheMu.Unlock()
}

// fill installs one cache entry learned from the home, unless the epoch
// moved on while the fill was in flight (an ownership change invalidated
// what the home said) or the entry points at this location (local elements
// resolve through the fast path, not the cache).  A "no entry" answer is
// cached negatively (InvalidBCID): later resolutions still forward to the
// home — so a subsequently published entry is always found, one hop slower —
// but no further fills are spawned until the next epoch bump.
func (d *Directory[G]) fill(gid G, owner partition.BCID, ok bool, epoch uint64) {
	d.cacheMu.Lock()
	delete(d.pending, gid)
	if d.epoch == epoch {
		switch {
		case !ok:
			d.cache[gid] = partition.InvalidBCID
		case d.ownerLoc(owner) != d.loc.ID():
			d.cache[gid] = owner
		}
	}
	d.cacheMu.Unlock()
}

// LookupOwner returns gid's authoritative entry, querying the home location
// synchronously.  It must be called from SPMD context (not from inside an
// RMI handler); resolvers use Resolve instead.
func (d *Directory[G]) LookupOwner(gid G) (partition.BCID, bool) {
	home := d.home(gid)
	read := func(od *Directory[G]) ownerResult {
		od.mu.RLock()
		owner, ok := od.entries[gid]
		od.mu.RUnlock()
		return ownerResult{owner: owner, ok: ok}
	}
	if home == d.loc.ID() {
		r := read(d)
		return r.owner, r.ok
	}
	d.loc.AccountDirectoryRMI(1)
	out := d.loc.SyncRMI(home, d.handle, func(obj any, _ *runtime.Location) any {
		return read(obj.(*Directory[G]))
	}).(ownerResult)
	return out.owner, out.ok
}

type ownerResult struct {
	owner partition.BCID
	ok    bool
}

// LocalEntries returns the number of entries this location is home for.
func (d *Directory[G]) LocalEntries() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// MemoryBytes estimates the metadata footprint of this location's registry
// slice and cache (16 bytes per entry: key hash slot + owner).
func (d *Directory[G]) MemoryBytes() int64 {
	d.mu.RLock()
	n := int64(len(d.entries))
	d.mu.RUnlock()
	if d.cacheOn {
		d.cacheMu.Lock()
		n += int64(len(d.cache))
		d.cacheMu.Unlock()
	}
	return n * 16
}

// DirectoryMigration supplies the container-family pieces MigrateElements
// needs on top of the shared redistribution engine.  The zero values of
// NewLocal, DestBC and Keep describe a location-keyed container (one base
// container per location, BCID == location id) — the layout of pGraph and
// pList; bucket-keyed containers (pHashMap's key-migration overlay) override
// them.
type DirectoryMigration[E any, G comparable, B BContainer] struct {
	// Alloc allocates the empty staging base container for one sub-domain.
	Alloc func(b partition.BCID) B
	// Enumerate calls emit for every element currently stored locally.
	Enumerate func(emit func(e E))
	// GID returns the element's directory key.
	GID func(e E) G
	// Place stores a received element into the staging base container.
	Place func(bc B, e E)
	// Bytes returns the simulated marshalled size of e (nil: sizer registry,
	// see MigrationSpec.Bytes).
	Bytes func(e E) int
	// Ops is the registered operation the element transfers travel under
	// (required, see MigrationSpec.Ops).
	Ops *MigrationOps[E]
	// Install swaps the staged storage into the container.
	Install func(lm *LocationManager[B])
	// NewLocal lists the sub-domains this location stores (default: the one
	// location-keyed base container BCID(self)).
	NewLocal []partition.BCID
	// DestBC returns the sub-domain receiving elements migrated to a
	// destination location (default: BCID(dest)).
	DestBC func(dest int) partition.BCID
	// Keep returns the sub-domain and owner of an element that is not being
	// migrated (default: it stays on this location, BCID(self)).
	Keep func(e E) (partition.BCID, int)
}

// moveReq is one element-migration request shipped through the all-gather.
// The fields are exported because the collective layer's wire form (gob under
// the multi-process transport) only marshals exported fields.
type moveReq[G comparable] struct {
	Gid  G
	Dest int
}

// MigrateElements moves individually named elements of a directory-backed
// container to explicit destination locations: the paper's element-migration
// container service, layered on RunMigration.  Collective — every location
// calls it, passing the moves it requests (gid → destination location); the
// union of all requests is applied, elements keep their GIDs, the new owners
// republish the moved entries (PublishBulk) and every location's resolution
// cache epoch is bumped before the collective completes, so no stale cached
// resolution survives the migration.  The container must be quiescent.
func MigrateElements[E any, G comparable, B BContainer](
	loc *runtime.Location,
	dir *Directory[G],
	moves map[G]int,
	spec DirectoryMigration[E, G, B],
) {
	self := loc.ID()
	// Union of every location's requests.  A request naming a location out
	// of range or an element that does not exist is ignored (the element
	// simply is not enumerated anywhere).
	reqs := make([]moveReq[G], 0, len(moves))
	for gid, dest := range moves {
		if dest >= 0 && dest < loc.NumLocations() {
			reqs = append(reqs, moveReq[G]{Gid: gid, Dest: dest})
		}
	}
	merged := make(map[G]int)
	for _, slice := range runtime.AllGatherT(loc, reqs) {
		for _, r := range slice {
			merged[r.Gid] = r.Dest
		}
	}

	newLocal := spec.NewLocal
	if newLocal == nil {
		newLocal = []partition.BCID{partition.BCID(self)}
	}
	destBC := spec.DestBC
	if destBC == nil {
		destBC = func(dest int) partition.BCID { return partition.BCID(dest) }
	}
	keep := spec.Keep
	if keep == nil {
		keep = func(E) (partition.BCID, int) { return partition.BCID(self), self }
	}

	RunMigration(loc, MigrationSpec[E, B]{
		NewLocal:  newLocal,
		Alloc:     spec.Alloc,
		Enumerate: spec.Enumerate,
		Route: func(e E) (partition.BCID, int) {
			if dest, ok := merged[spec.GID(e)]; ok {
				return destBC(dest), dest
			}
			return keep(e)
		},
		Place:   spec.Place,
		Bytes:   spec.Bytes,
		Ops:     spec.Ops,
		Install: spec.Install,
	})

	// Republish the moved entries from their new owners and invalidate every
	// location's cache; the fence drains the republications (and any cache
	// fills still in flight) before any location resumes element traffic.
	mine := make([]G, 0)
	for gid, dest := range merged {
		if dest == self {
			mine = append(mine, gid)
		}
	}
	dir.PublishBulk(mine, destBC(self))
	dir.BumpEpoch()
	loc.Fence()
	loc.Barrier()
}
