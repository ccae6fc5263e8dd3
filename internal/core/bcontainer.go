package core

import "repro/internal/partition"

// BContainer is the base-container concept of the PCF (Table III): the
// minimal interface a per-location storage unit must expose so the framework
// can manage it.  Concrete base containers (package bcontainer) add their
// own element-level interface (Get/Set, Insert/Erase, AddVertex, ...), which
// the owning pContainer accesses through typed invoke actions.
type BContainer interface {
	// BCID returns the sub-domain identifier this base container stores.
	BCID() partition.BCID
	// Size returns the number of elements currently stored.
	Size() int64
	// Empty reports whether the base container holds no elements.
	Empty() bool
	// Clear removes all elements.
	Clear()
	// MemoryBytes returns (data bytes, metadata bytes), the two components
	// the paper's memory_size() reports (Tables XXII/XXIII).
	MemoryBytes() (data, meta int64)
}

// LocationManager is the per-location registry of base containers
// (Table IV).  Each pContainer representative owns one; it maps the BCIDs
// assigned to this location to their storage.
//
// The location manager itself is not safe for concurrent mutation: base
// containers are added during collective construction or under the
// container's metadata lock.  Entries are never removed one by one: base
// containers leave when Container.ReplaceLocationManager installs a new
// registry, which is also when the thread-safety manager drops their locks.
type LocationManager[B BContainer] struct {
	order []partition.BCID
	bcs   map[partition.BCID]B
}

// NewLocationManager returns an empty location manager.
func NewLocationManager[B BContainer]() *LocationManager[B] {
	return &LocationManager[B]{bcs: make(map[partition.BCID]B)}
}

// Add registers a base container under its BCID.
func (lm *LocationManager[B]) Add(b B) {
	id := b.BCID()
	if _, dup := lm.bcs[id]; dup {
		panic("core: duplicate bContainer registration")
	}
	lm.bcs[id] = b
	lm.order = append(lm.order, id)
}

// Get returns the base container with the given BCID.
func (lm *LocationManager[B]) Get(id partition.BCID) (B, bool) {
	b, ok := lm.bcs[id]
	return b, ok
}

// MustGet returns the base container with the given BCID and panics if it is
// not managed by this location.
func (lm *LocationManager[B]) MustGet(id partition.BCID) B {
	b, ok := lm.bcs[id]
	if !ok {
		panic("core: bContainer not on this location")
	}
	return b
}

// NumBContainers returns how many base containers live on this location.
func (lm *LocationManager[B]) NumBContainers() int { return len(lm.order) }

// BCIDs returns the locally managed BCIDs in registration order.
func (lm *LocationManager[B]) BCIDs() []partition.BCID {
	return append([]partition.BCID(nil), lm.order...)
}

// ForEach applies fn to every local base container in registration order.
func (lm *LocationManager[B]) ForEach(fn func(B)) {
	for _, id := range lm.order {
		fn(lm.bcs[id])
	}
}

// LocalSize sums the sizes of all local base containers.
func (lm *LocationManager[B]) LocalSize() int64 {
	var n int64
	for _, id := range lm.order {
		n += lm.bcs[id].Size()
	}
	return n
}

// Clear clears every local base container (the elements, not the registry).
func (lm *LocationManager[B]) Clear() {
	for _, id := range lm.order {
		lm.bcs[id].Clear()
	}
}

// MemoryBytes sums the data and metadata footprint of all local base
// containers and adds the registry's own metadata.
func (lm *LocationManager[B]) MemoryBytes() (data, meta int64) {
	for _, id := range lm.order {
		d, m := lm.bcs[id].MemoryBytes()
		data += d
		meta += m
	}
	meta += int64(len(lm.order)) * 16 // registry entries
	return data, meta
}
