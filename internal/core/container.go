package core

import (
	"fmt"

	"repro/internal/domain"
	"repro/internal/partition"
	"repro/internal/runtime"
)

// Resolver is the address-translation interface the distribution manager
// needs from a container's partition and partition mapper: given a GID,
// which sub-domain holds it (or which location might know), and given a
// sub-domain, which location stores it.
type Resolver[G any] interface {
	// Find returns the sub-domain holding gid, or a forwarding hint.
	Find(gid G) partition.Info
	// OwnerOf returns the location storing sub-domain b.
	OwnerOf(b partition.BCID) int
}

// Placement is one element's fully resolved owner: the destination location
// and, when resolution succeeded, the sub-domain.  BCID < 0 marks a
// forwarding hint (the element could not be resolved here; Dest may know
// more).
type Placement struct {
	Dest int
	BCID partition.BCID
}

// BulkResolver is an optional Resolver extension: resolvers that can place a
// whole batch in one call.  The bulk method skeleton prefers it over
// per-element Find/OwnerOf pairs because a batch resolver can amortise work
// across elements — e.g. memoise the last block's extent so a run of
// consecutive GIDs costs one range check each instead of a closed-form
// resolution.  For i in [0, len(out)), out[i] must receive the placement of
// gids[idxs[i]] (or gids[i] when idxs is nil), with exactly the semantics of
// Find + OwnerOf.
type BulkResolver[G any] interface {
	Resolver[G]
	ResolveBulk(gids []G, idxs []int, out []Placement)
}

// IndexedResolver adapts a one-dimensional indexed partition plus a mapper
// into a Resolver (the common case for pArray/pVector).
type IndexedResolver struct {
	Partition partition.Indexed
	Mapper    partition.Mapper
}

// Find resolves an index through the partition.
func (r IndexedResolver) Find(gid int64) partition.Info { return r.Partition.Find(gid) }

// OwnerOf resolves a sub-domain through the mapper.
func (r IndexedResolver) OwnerOf(b partition.BCID) int { return r.Mapper.Map(b) }

// ResolveBulk places a batch of indices.  When the partition guarantees
// contiguous sub-domains, the last resolved block's extent and owner are
// memoised: bulk accesses overwhelmingly touch runs of consecutive indices,
// so most elements resolve with a single range check and no mapper call.
// Non-contiguous partitions (block-cyclic) fall back to per-element
// resolution — range membership does not imply ownership there.
func (r IndexedResolver) ResolveBulk(gids []int64, idxs []int, out []Placement) {
	memo := false
	if c, ok := r.Partition.(partition.Contiguous); ok {
		memo = c.ContiguousBlocks()
	}
	var run domain.Range1D
	var cached Placement
	have := false
	for i := range out {
		k := i
		if idxs != nil {
			k = idxs[i]
		}
		g := gids[k]
		if have && run.Contains(g) {
			out[i] = cached
			continue
		}
		info := r.Partition.Find(g)
		if !info.Valid {
			out[i] = Placement{Dest: info.Hint, BCID: partition.InvalidBCID}
			have = false
			continue
		}
		cached = Placement{Dest: r.Mapper.Map(info.BCID), BCID: info.BCID}
		out[i] = cached
		if memo {
			run = r.Partition.SubDomain(info.BCID)
			have = true
		}
	}
}

// Container is the pContainer base class (Table XI): the per-location
// representative of a distributed container.  Concrete containers embed it,
// construct it collectively (SPMD) so every representative registers with
// the RTS under the same handle, and express their element-wise methods as
// Invoke / InvokeRet / InvokeSplit calls.
//
// The type parameters are the GID type G and the base-container type B
// stored by the location manager.
type Container[G any, B BContainer] struct {
	loc      *runtime.Location
	handle   runtime.Handle
	locMgr   *LocationManager[B]
	resolver Resolver[G]
	ths      ThreadSafety
	traits   Traits
	// closures are this instantiation's closure instances of the element
	// operation (see closureOpsFor), held here so a call finds them without a
	// type-keyed lookup.
	closures *closureOps[G, B]
}

// InitContainer initialises the embedded base in place: it records the
// location, installs the resolver and traits, creates the location manager
// and registers the representative with the RTS.  It must be called
// collectively, in the same construction order on every location, before any
// other method.  The registered object is the base itself, so remote
// invocations can recover the typed base on the destination location.
func (c *Container[G, B]) InitContainer(loc *runtime.Location, resolver Resolver[G], traits Traits) {
	c.loc = loc
	c.resolver = resolver
	c.traits = traits
	c.ths = traits.manager()
	c.locMgr = NewLocationManager[B]()
	c.closures = closureOpsFor[G, B]()
	c.handle = loc.RegisterObject(c)
}

// Destroy unregisters the representative from the RTS.  Like construction it
// should be performed on every location.
func (c *Container[G, B]) Destroy() {
	c.loc.UnregisterObject(c.handle)
}

// Location returns the location this representative lives on.
func (c *Container[G, B]) Location() *runtime.Location { return c.loc }

// Handle returns the RTS handle shared by all representatives.
func (c *Container[G, B]) Handle() runtime.Handle { return c.handle }

// LocationManager exposes the per-location base-container registry.
func (c *Container[G, B]) LocationManager() *LocationManager[B] { return c.locMgr }

// Resolver returns the installed address-translation object.
func (c *Container[G, B]) Resolver() Resolver[G] { return c.resolver }

// SetResolver replaces the address-translation object.  It is used by
// redistribution, under a metadata write bracket, and must be performed
// collectively.
func (c *Container[G, B]) SetResolver(r Resolver[G]) {
	c.ths.MetadataAccessPre(Write)
	c.resolver = r
	c.ths.MetadataAccessPost(Write)
}

// ReplaceLocationManager swaps in a new base-container registry under the
// metadata write bracket, then has the thread-safety manager forget the base
// containers that left with the old one.  Redistribution uses it after
// migrating data into freshly allocated base containers.
func (c *Container[G, B]) ReplaceLocationManager(lm *LocationManager[B]) {
	c.ths.MetadataAccessPre(Write)
	c.locMgr = lm
	c.ths.MetadataAccessPost(Write)
	c.ths.Retain(lm.order)
}

// Traits returns the traits this representative was constructed with.
func (c *Container[G, B]) Traits() Traits { return c.traits }

// ThreadSafety returns the active thread-safety manager.
func (c *Container[G, B]) ThreadSafety() ThreadSafety { return c.ths }

// Sequential reports whether the container runs under the Sequential
// consistency model, in which case asynchronous methods must execute
// synchronously.
func (c *Container[G, B]) Sequential() bool { return c.traits.Consistency == Sequential }

// IsLocal reports whether gid resolves to a base container stored on this
// location (Table XII's is_local).  The metadata bracket is released by
// defer so a fail-fast resolver panic does not leak the lock.
func (c *Container[G, B]) IsLocal(gid G) bool {
	c.ths.MetadataAccessPre(Read)
	defer c.ths.MetadataAccessPost(Read)
	info := c.resolver.Find(gid)
	if !info.Valid {
		return false
	}
	return c.resolver.OwnerOf(info.BCID) == c.loc.ID()
}

// Lookup returns the location that owns gid, or that may know more about it
// (Table XII's lookup).
func (c *Container[G, B]) Lookup(gid G) int {
	c.ths.MetadataAccessPre(Read)
	defer c.ths.MetadataAccessPost(Read)
	info := c.resolver.Find(gid)
	if !info.Valid {
		return info.Hint
	}
	return c.resolver.OwnerOf(info.BCID)
}

// LocalSize returns the number of elements stored on this location.
func (c *Container[G, B]) LocalSize() int64 {
	c.ths.MetadataAccessPre(Read)
	defer c.ths.MetadataAccessPost(Read)
	return c.locMgr.LocalSize()
}

// LocalEmpty reports whether this location stores no elements.
func (c *Container[G, B]) LocalEmpty() bool { return c.LocalSize() == 0 }

// GlobalSize returns the total number of elements across all locations.
// It is a collective operation (every location must call it).
func (c *Container[G, B]) GlobalSize() int64 {
	return runtime.AllReduceSum(c.loc, c.LocalSize())
}

// GlobalEmpty reports whether the whole container is empty.  Collective.
func (c *Container[G, B]) GlobalEmpty() bool { return c.GlobalSize() == 0 }

// MemoryUsage is the per-location result of MemorySize.
type MemoryUsage struct {
	Data     int64
	Metadata int64
}

func init() {
	// MemorySize reduces MemoryUsage collectively; in multi-process mode the
	// contribution crosses the control plane as gob.
	runtime.RegisterCollectiveType(MemoryUsage{})
}

// Total returns data plus metadata bytes.
func (m MemoryUsage) Total() int64 { return m.Data + m.Metadata }

// Add accumulates another usage record.
func (m MemoryUsage) Add(o MemoryUsage) MemoryUsage {
	return MemoryUsage{Data: m.Data + o.Data, Metadata: m.Metadata + o.Metadata}
}

// String formats the usage for reports.
func (m MemoryUsage) String() string {
	return fmt.Sprintf("data=%dB metadata=%dB", m.Data, m.Metadata)
}

// LocalMemory returns this location's data/metadata footprint: the local
// base containers plus a fixed estimate for the distribution metadata.
func (c *Container[G, B]) LocalMemory(extraMetadata int64) MemoryUsage {
	d, m := c.locMgr.MemoryBytes()
	return MemoryUsage{Data: d, Metadata: m + extraMetadata}
}

// GlobalMemory sums LocalMemory over all locations.  Collective.
func (c *Container[G, B]) GlobalMemory(extraMetadata int64) MemoryUsage {
	local := c.LocalMemory(extraMetadata)
	return runtime.AllReduceT(c.loc, local, func(a, b MemoryUsage) MemoryUsage { return a.Add(b) })
}

// ForEachLocalBC applies fn to every local base container under the
// thread-safety manager's data bracket.
func (c *Container[G, B]) ForEachLocalBC(mode AccessMode, fn func(B)) {
	for _, id := range c.locMgr.BCIDs() {
		bc := c.locMgr.MustGet(id)
		c.ths.DataAccessPre(id, mode)
		fn(bc)
		c.ths.DataAccessPost(id, mode)
	}
}

// Fence is a convenience forwarding to the RTS fence.
func (c *Container[G, B]) Fence() { c.loc.Fence() }
