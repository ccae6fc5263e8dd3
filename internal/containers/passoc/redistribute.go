package passoc

import (
	"unsafe"

	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/partition"
)

// kvPair is the element record shipped between locations when a pHashMap
// redistributes.
type kvPair[K comparable, V any] struct {
	key K
	val V
}

// Redistribute reorganises the pHashMap's pairs according to a new hashed
// partition and mapper, through the shared redistribution engine in package
// core.  The new partition may change the number of hash buckets or the
// hash function; the mapper may place buckets on arbitrary locations.
// Every pair is routed by the new closed form, so keys moved by the
// key-migration overlay snap back to their hash bucket and the exception
// directory is reset (entries cleared, caches invalidated).  Collective;
// every location passes identical arguments.
func (h *HashMap[K, V]) Redistribute(newPart *partition.Hashed[K], newMapper partition.Mapper) {
	loc := h.Location()
	var probe kvPair[K, V]
	elemBytes := int(unsafe.Sizeof(probe))
	core.RunMigration(loc, core.MigrationSpec[kvPair[K, V], *bcontainer.HashMap[K, V]]{
		NewLocal: newMapper.LocalBCIDs(loc.ID()),
		Alloc: func(b partition.BCID) *bcontainer.HashMap[K, V] {
			return bcontainer.NewHashMap[K, V](b)
		},
		Enumerate: func(emit func(kvPair[K, V])) {
			h.ForEachLocalBC(core.Read, func(bc *bcontainer.HashMap[K, V]) {
				bc.Range(func(k K, v V) bool {
					emit(kvPair[K, V]{key: k, val: v})
					return true
				})
			})
		},
		Route: func(e kvPair[K, V]) (partition.BCID, int) {
			info := newPart.Find(e.key)
			return info.BCID, newMapper.Map(info.BCID)
		},
		Place: func(bc *bcontainer.HashMap[K, V], e kvPair[K, V]) { bc.Insert(e.key, e.val) },
		Bytes: func(kvPair[K, V]) int { return elemBytes },
		Ops:   kvMigOpsFor[K, V](),
		Install: func(lm *core.LocationManager[*bcontainer.HashMap[K, V]]) {
			h.ReplaceLocationManager(lm)
			h.part, h.mapper = newPart, newMapper
			if h.dir != nil {
				// The overlay resolver reads the live part/mapper fields;
				// dropping the exception entries and caches here keeps
				// every slice consistent before the final barrier releases
				// element traffic.
				h.dir.Reset()
			} else {
				h.SetResolver(hashResolver[K]{part: newPart, mapper: newMapper})
			}
		},
	})
}

// Rebalance evens out the per-location pair loads by remapping the existing
// hash buckets with the load-balance advisor's greedy proposal (the bucket
// set and hash function stay fixed, so only ownership moves).  Collective.
func (h *HashMap[K, V]) Rebalance() {
	loc := h.Location()
	local := make([]int64, h.part.NumSubdomains())
	h.ForEachLocalBC(core.Read, func(bc *bcontainer.HashMap[K, V]) {
		local[int(bc.BCID())] = bc.Size()
	})
	sizes := partition.CollectSubSizes(loc, local)
	h.Redistribute(h.part, partition.ProposeMapping(sizes, loc.NumLocations()))
}

// Partition returns the hashed partition in use.
func (h *HashMap[K, V]) Partition() *partition.Hashed[K] { return h.part }

// Mapper returns the bucket → location mapper in use.
func (h *HashMap[K, V]) Mapper() partition.Mapper { return h.mapper }

// Redistribute reorganises the pMap's pairs according to a new splitter
// (value-range) partition and mapper through the shared redistribution
// engine: the splitters may move (repartitioning the key ranges) and the
// mapper may place ranges on arbitrary locations.  PR 1 wired only the
// hashed family; the sorted family takes exactly the same three-phase path,
// it just allocates sorted staging ranges and routes by splitter search.
// Collective; every location passes identical arguments.
func (m *Map[K, V]) Redistribute(newPart *partition.Ranged[K], newMapper partition.Mapper) {
	loc := m.Location()
	var probe mapPair[K, V]
	elemBytes := int(unsafe.Sizeof(probe))
	core.RunMigration(loc, core.MigrationSpec[mapPair[K, V], *bcontainer.SortedMap[K, V]]{
		NewLocal: newMapper.LocalBCIDs(loc.ID()),
		Alloc: func(b partition.BCID) *bcontainer.SortedMap[K, V] {
			return bcontainer.NewSortedMap[K, V](b, m.less)
		},
		Enumerate: func(emit func(mapPair[K, V])) {
			m.ForEachLocalBC(core.Read, func(bc *bcontainer.SortedMap[K, V]) {
				bc.Range(func(k K, v V) bool {
					emit(mapPair[K, V]{key: k, val: v})
					return true
				})
			})
		},
		Route: func(e mapPair[K, V]) (partition.BCID, int) {
			info := newPart.Find(e.key)
			return info.BCID, newMapper.Map(info.BCID)
		},
		Place: func(bc *bcontainer.SortedMap[K, V], e mapPair[K, V]) { bc.Insert(e.key, e.val) },
		Bytes: func(mapPair[K, V]) int { return elemBytes },
		Ops:   core.MigrationOpsOf[mapPair[K, V]](),
		Install: func(lm *core.LocationManager[*bcontainer.SortedMap[K, V]]) {
			m.ReplaceLocationManager(lm)
			m.SetResolver(rangeResolver[K]{part: newPart, mapper: newMapper})
			m.part, m.mapper = newPart, newMapper
		},
	})
}

// mapPair is the element record shipped by pMap redistributions (keys are
// only required to be orderable, not comparable, so it cannot share kvPair).
type mapPair[K any, V any] struct {
	key K
	val V
}

// Rebalance evens out the per-location pair loads by remapping the existing
// key ranges with the load-balance advisor's greedy proposal (the splitters
// stay fixed, only range ownership moves), matching the hashed family's
// Rebalance.  Collective.
func (m *Map[K, V]) Rebalance() {
	loc := m.Location()
	local := make([]int64, m.part.NumSubdomains())
	m.ForEachLocalBC(core.Read, func(bc *bcontainer.SortedMap[K, V]) {
		local[int(bc.BCID())] = bc.Size()
	})
	sizes := partition.CollectSubSizes(loc, local)
	m.Redistribute(m.part, partition.ProposeMapping(sizes, loc.NumLocations()))
}

// Partition returns the splitter partition in use.
func (m *Map[K, V]) Partition() *partition.Ranged[K] { return m.part }

// Mapper returns the range → location mapper in use.
func (m *Map[K, V]) Mapper() partition.Mapper { return m.mapper }

// Redistribute reorganises the pSet's members according to a new hashed
// partition and mapper (the set is a key-is-value layer over the hashed
// machinery, so it redistributes through it).  Collective.
func (s *Set[K]) Redistribute(newPart *partition.Hashed[K], newMapper partition.Mapper) {
	s.m.Redistribute(newPart, newMapper)
}

// Rebalance evens out the per-location member loads by remapping the hash
// buckets with the load-balance advisor.  Collective.
func (s *Set[K]) Rebalance() { s.m.Rebalance() }

// Partition returns the hashed partition in use.
func (s *Set[K]) Partition() *partition.Hashed[K] { return s.m.Partition() }

// Mapper returns the bucket → location mapper in use.
func (s *Set[K]) Mapper() partition.Mapper { return s.m.Mapper() }

// Redistribute reorganises the pMultiMap's (key, values) pairs according to
// a new hashed partition and mapper.  Collective.
func (mm *MultiMap[K, V]) Redistribute(newPart *partition.Hashed[K], newMapper partition.Mapper) {
	mm.m.Redistribute(newPart, newMapper)
}

// Rebalance evens out the per-location key loads by remapping the hash
// buckets with the load-balance advisor.  Collective.
func (mm *MultiMap[K, V]) Rebalance() { mm.m.Rebalance() }
