package passoc

import (
	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// CompressedSet is a pSet over a dense int64 key universe [0, n) stored
// through the adaptive representation seam (bcontainer.CompressedSet): an
// indexed pContainer whose sub-domains are key ranges, with per-chunk
// array↔bitmap storage so resident bytes scale with the members rather than
// the universe.  It is the compressed counterpart of a pArray of membership
// flags — same key universe, same blocked distribution, a fraction of the
// footprint at low density — and the contrast the `sparse` bench experiment
// measures.
//
// All element methods route through registered operations (the key and the
// membership flag are the whole payload), so the container works across
// process boundaries.
type CompressedSet struct {
	core.Container[int64, *bcontainer.CompressedSet]

	dom    domain.Range1D
	part   partition.Indexed
	mapper partition.Mapper
}

// The registered element operations: an asynchronous membership write (true
// inserts, false erases) and a membership test.  Concrete types, so one
// registration serves every CompressedSet.
var (
	csetWrite = core.RegisterWrite("passoc.cset/set", "passoc.cset/bulk-set", transport.Int64Codec, transport.BoolCodec,
		func(bc *bcontainer.CompressedSet, key int64, member bool) {
			if member {
				bc.Insert(key)
			} else {
				bc.Erase(key)
			}
		})
	csetTest = core.RegisterRead("passoc.cset/get", "passoc.cset/bulk-get", transport.Int64Codec, transport.BoolCodec,
		(*bcontainer.CompressedSet).Contains)
)

// csetMigOps is the registered migration operation: redistribution ships
// whole adaptive chunks in their resident representation.
var csetMigOps = core.RegisterMigrationOps("passoc.cset", bcontainer.SetSegmentCodec)

// memberBytes is the simulated payload of one membership write: the flag
// itself (the key travels as the GID, like every element operation).
const memberBytes = 1

// CSetOption customises CompressedSet construction.
type CSetOption func(*csetOptions)

type csetOptions struct {
	part   partition.Indexed
	mapper partition.Mapper
	traits core.Traits
	hasTr  bool
}

// WithSetPartition selects the key partition (default: balanced, one
// sub-domain per location).
func WithSetPartition(p partition.Indexed) CSetOption {
	return func(o *csetOptions) { o.part = p }
}

// WithSetMapper selects the sub-domain → location mapper (default: blocked).
func WithSetMapper(m partition.Mapper) CSetOption {
	return func(o *csetOptions) { o.mapper = m }
}

// WithSetTraits overrides the default traits.
func WithSetTraits(t core.Traits) CSetOption {
	return func(o *csetOptions) { o.traits = t; o.hasTr = true }
}

// NewCompressedSet constructs an empty compressed pSet over the key universe
// [0, n).  Collective.
func NewCompressedSet(loc *runtime.Location, n int64, opts ...CSetOption) *CompressedSet {
	var o csetOptions
	for _, fn := range opts {
		fn(&o)
	}
	dom := domain.NewRange1D(0, n)
	if o.part == nil {
		o.part = partition.NewBalanced(dom, loc.NumLocations())
	}
	if o.mapper == nil {
		o.mapper = partition.NewBlockedMapper(o.part.NumSubdomains(), loc.NumLocations())
	}
	if !o.hasTr {
		o.traits = core.DefaultTraits()
	}
	s := &CompressedSet{dom: dom, part: o.part, mapper: o.mapper}
	s.InitContainer(loc, core.IndexedResolver{Partition: o.part, Mapper: o.mapper}, o.traits)
	for _, b := range o.mapper.LocalBCIDs(loc.ID()) {
		s.LocationManager().Add(bcontainer.NewCompressedSet(b))
	}
	// Constructors are collective: wait for every representative.
	loc.Barrier()
	return s
}

// Domain returns the key universe [0, n).
func (s *CompressedSet) Domain() domain.Range1D { return s.dom }

// Partition returns the key partition in use.
func (s *CompressedSet) Partition() partition.Indexed { return s.part }

// Mapper returns the sub-domain mapper in use.
func (s *CompressedSet) Mapper() partition.Mapper { return s.mapper }

// Insert adds key asynchronously.
func (s *CompressedSet) Insert(key int64) {
	s.checkKey(key)
	csetWrite.Async(&s.Container, key, true, memberBytes)
}

// EraseAsync removes key asynchronously.
func (s *CompressedSet) EraseAsync(key int64) {
	s.checkKey(key)
	csetWrite.Async(&s.Container, key, false, memberBytes)
}

// Contains reports membership of key.  Synchronous.
func (s *CompressedSet) Contains(key int64) bool {
	s.checkKey(key)
	return csetTest.Sync(&s.Container, key, struct{}{})
}

// ContainsSplit starts a split-phase membership test of key.
func (s *CompressedSet) ContainsSplit(key int64) *runtime.FutureOf[bool] {
	s.checkKey(key)
	return runtime.NewFutureOf[bool](csetTest.Split(&s.Container, key, struct{}{}))
}

// InsertBulk adds every key asynchronously: the batch is resolved once and
// shipped as one sized RMI per owning location; the slice is not retained
// past the call.
func (s *CompressedSet) InsertBulk(keys []int64) {
	if len(keys) == 0 {
		return
	}
	flags := make([]bool, len(keys))
	for i, k := range keys {
		s.checkKey(k)
		flags[i] = true
	}
	csetWrite.BulkAsync(&s.Container, keys, flags, memberBytes)
}

// ContainsBulk tests every key and returns the flags in key order
// (synchronous; one round trip per owning location).
func (s *CompressedSet) ContainsBulk(keys []int64) []bool {
	for _, k := range keys {
		s.checkKey(k)
	}
	out := make([]bool, len(keys))
	csetTest.BulkSync(&s.Container, keys, nil, out, memberBytes)
	return out
}

func (s *CompressedSet) checkKey(key int64) {
	if !s.dom.Contains(key) {
		panic("passoc: compressed-set key outside the universe")
	}
}

// Size returns the global number of members.  Collective.
func (s *CompressedSet) Size() int64 { return s.GlobalSize() }

// LocalRange applies fn to every locally stored member in ascending key
// order (per base container).
func (s *CompressedSet) LocalRange(fn func(key int64) bool) {
	s.ForEachLocalBC(core.Read, func(bc *bcontainer.CompressedSet) { bc.Range(fn) })
}

// LocalChunkKind reports the physical representation of the resident chunk
// covering key on this location (ok=false when this location stores no such
// chunk) — the transition-assertion hook of the roaring pattern, lifted to
// the pContainer.
func (s *CompressedSet) LocalChunkKind(key int64) (kind bcontainer.ReprKind, ok bool) {
	s.ForEachLocalBC(core.Read, func(bc *bcontainer.CompressedSet) {
		if k, resident := bc.ChunkKind(key); resident {
			kind, ok = k, true
		}
	})
	return kind, ok
}

// MemorySize returns the container-wide footprint.  Collective.
func (s *CompressedSet) MemorySize() core.MemoryUsage {
	return s.GlobalMemory(partition.MemoryBytes(s.mapper) + 32)
}

// Redistribute reorganises the members according to a new indexed partition
// of the same universe and a new mapper, through the shared redistribution
// engine.  Unlike the flat families, the unit of migration is one adaptive
// chunk in its resident representation (a SetSegment): migration bytes scale
// with the members shipped, never with the key span.  A chunk whose key span
// straddles a new sub-domain boundary is split by regrouping its members
// into per-target chunks.  Collective.
func (s *CompressedSet) Redistribute(newPart partition.Indexed, newMapper partition.Mapper) {
	loc := s.Location()
	core.RunMigration(loc, core.MigrationSpec[bcontainer.SetSegment, *bcontainer.CompressedSet]{
		NewLocal: newMapper.LocalBCIDs(loc.ID()),
		Alloc: func(b partition.BCID) *bcontainer.CompressedSet {
			return bcontainer.NewCompressedSet(b)
		},
		Enumerate: func(emit func(bcontainer.SetSegment)) {
			s.ForEachLocalBC(core.Read, func(bc *bcontainer.CompressedSet) {
				for _, seg := range bc.Segments() {
					base := seg.Chunk << bcontainer.SetChunkBits
					hi := base + bcontainer.SetChunkMask
					if hi >= s.dom.Hi {
						hi = s.dom.Hi - 1
					}
					// Whole-chunk fast path: the chunk's key span (clamped to
					// the universe) lands in one target sub-domain, so the
					// resident chunk ships as-is (the old storage is immutable
					// for the whole migration and dropped at install, so no
					// copy is needed).
					if newPart.Find(base).BCID == newPart.Find(hi).BCID {
						emit(seg)
						continue
					}
					// Straddling chunk: regroup members by target.  The
					// partition's sub-domains are contiguous ranges, so
					// ascending members change target monotonically.
					var cur *bcontainer.SetChunk
					var curTarget partition.BCID
					seg.Set.Range(func(k uint16) bool {
						t := newPart.Find(base | int64(k)).BCID
						if cur == nil || t != curTarget {
							if cur != nil {
								emit(bcontainer.SetSegment{Chunk: seg.Chunk, Set: cur})
							}
							cur, curTarget = bcontainer.NewSetChunk(), t
						}
						cur.Insert(k)
						return true
					})
					if cur != nil {
						emit(bcontainer.SetSegment{Chunk: seg.Chunk, Set: cur})
					}
				}
			})
		},
		Route: func(seg bcontainer.SetSegment) (partition.BCID, int) {
			k, _ := seg.Set.Min()
			info := newPart.Find(seg.Chunk<<bcontainer.SetChunkBits | int64(k))
			return info.BCID, newMapper.Map(info.BCID)
		},
		Place: func(bc *bcontainer.CompressedSet, seg bcontainer.SetSegment) {
			bc.InstallSegment(seg)
		},
		Bytes: func(seg bcontainer.SetSegment) int { return seg.ByteSize() },
		Ops:   csetMigOps,
		Install: func(lm *core.LocationManager[*bcontainer.CompressedSet]) {
			s.ReplaceLocationManager(lm)
			s.SetResolver(core.IndexedResolver{Partition: newPart, Mapper: newMapper})
			s.part, s.mapper = newPart, newMapper
		},
	})
}

// Rebalance evens out the per-location member counts by remapping the
// existing sub-domains with the load-balance advisor's greedy proposal (the
// key partition stays fixed, only ownership moves) — membership density is
// not uniform over the universe, so unlike the flat static families the
// proposal is measured, not closed-form.  Collective.
func (s *CompressedSet) Rebalance() {
	loc := s.Location()
	local := make([]int64, s.part.NumSubdomains())
	s.ForEachLocalBC(core.Read, func(bc *bcontainer.CompressedSet) {
		local[int(bc.BCID())] = bc.Size()
	})
	sizes := partition.CollectSubSizes(loc, local)
	s.Redistribute(s.part, partition.ProposeMapping(sizes, loc.NumLocations()))
}
