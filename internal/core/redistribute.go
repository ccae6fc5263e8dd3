package core

import (
	"sync"
	"unsafe"

	"repro/internal/domain"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// This file implements the shared redistribution subsystem (Chapter V,
// Section G): the collective protocol that reorganises a pContainer's
// elements according to a new partition and partition mapper.  The protocol
// is the same for every container family — allocate staging storage for the
// new distribution, ship every element to its new owner as an ordinary RMI
// on the simulated interconnect, swap the staged storage in — so the engine
// lives here and the containers only supply the family-specific pieces
// through a MigrationSpec.
//
// The protocol has three phases, separated by collective synchronisation:
//
//  1. Every location allocates the base containers the new distribution
//     assigns to it and registers a migration target with the RTS
//     (registration is collective and SPMD-ordered, so all locations obtain
//     the same handle).
//  2. Every location routes each of its elements to the element's new
//     owner: elements that stay local are placed directly (no message),
//     elements that change owner travel as asynchronous RMIs, exactly like
//     the marshalled bContainer fragments the paper ships.  A fence drains
//     the traffic.
//  3. Every location installs the staged storage and new address metadata,
//     then retires the migration target.

// MigrationSpec describes one container family's redistribution: how to
// allocate staging storage, enumerate the elements currently stored locally,
// route an element to its new sub-domain and owner location, place a
// received element into staging, and install the completed storage.
// E is the element record shipped between locations, B the base-container
// type managed by the family's location manager.
type MigrationSpec[E any, B BContainer] struct {
	// NewLocal lists the sub-domains the new distribution maps to this
	// location (typically newMapper.LocalBCIDs(self)).
	NewLocal []partition.BCID
	// Alloc allocates the empty staging base container for one sub-domain.
	Alloc func(b partition.BCID) B
	// Enumerate calls emit for every element currently stored on this
	// location.
	Enumerate func(emit func(e E))
	// Route returns the sub-domain and owner location of e under the new
	// distribution.
	Route func(e E) (partition.BCID, int)
	// Place stores a received element into the staging base container of
	// its new sub-domain.  The engine serialises Place calls per location.
	Place func(bc B, e E)
	// Bytes returns the simulated marshalled size of e, accounted against
	// the machine statistics when e changes location.  A nil Bytes resolves
	// the element through the sizer registry (Location.PayloadBytes), so a
	// registered or Sizer-implementing element type is accounted at its real
	// marshalled size and only a type no tier knows falls back to the flat
	// default — counted in the SizerMisses statistic instead of silently.
	Bytes func(e E) int
	// Ops is the registered operation (RegisterMigrationOps) the phase-2
	// element transfers travel under.  Required.
	Ops *MigrationOps[E]
	// Install swaps the staged storage into the container; the containers
	// also replace their resolver and distribution metadata here.  It runs
	// after all elements have arrived and before any location resumes.
	Install func(lm *LocationManager[B])
}

// migrator is the handle-addressable object that receives migrated elements
// during one redistribution; element transfers address it through ordinary
// RMIs.
type migrator[E any, B BContainer] struct {
	mu      sync.Mutex
	staging map[partition.BCID]B
	place   func(bc B, e E)
}

func (m *migrator[E, B]) recv(b partition.BCID, e E) {
	m.mu.Lock()
	m.place(m.staging[b], e)
	m.mu.Unlock()
}

// migSink is the handler-side face of a migrator: migration operations
// type-assert the addressed object to migSink[E], so one registration per
// element type serves every base-container type that ships that element.
type migSink[E any] interface {
	recv(b partition.BCID, e E)
}

// migArgs is one registered phase-2 element transfer in flight.
type migArgs[E any] struct {
	bcid partition.BCID
	elem E
}

var migArgsPool sync.Pool

func getMigArgs[E any]() *migArgs[E] {
	if v := migArgsPool.Get(); v != nil {
		if a, ok := v.(*migArgs[E]); ok {
			return a
		}
	}
	return new(migArgs[E])
}

func putMigArgs[E any](a *migArgs[E]) {
	*a = migArgs[E]{}
	migArgsPool.Put(a)
}

// MigrationOps is the registered phase-2 element transfer for one element
// type.  Obtain one per element type from RegisterMigrationOps (inside
// OncePerType when the type is generic — registration names must be unique).
type MigrationOps[E any] struct {
	name string
	op   runtime.OpID
}

// RegisterMigrationOps registers the phase-2 migration operation for one
// element type and returns its handle.  name must be unique and stable across
// cooperating processes (derive it from the element codec's name, never from
// registration order); registering the same name twice panics.  The transfer
// crosses wires by value iff elem does, so with a real element codec the
// redistribution runs across process boundaries.
func RegisterMigrationOps[E any](name string, elem transport.Codec[E]) *MigrationOps[E] {
	codec := transport.Derive(name+"/migrate-args",
		func(b *transport.Buffer, a *migArgs[E]) {
			b.PutVarint(int64(a.bcid))
			elem.Encode(b, a.elem)
		},
		func(b *transport.Buffer) *migArgs[E] {
			a := getMigArgs[E]()
			a.bcid = partition.BCID(b.Varint())
			a.elem = elem.Decode(b)
			return a
		},
		elem)
	o := &MigrationOps[E]{name: name}
	o.op = runtime.RegisterOp(name+"/migrate", codec,
		func(obj any, _ *runtime.Location, a *migArgs[E]) {
			obj.(migSink[E]).recv(a.bcid, a.elem)
			putMigArgs(a)
		},
		putMigArgs[E])
	return o
}

// MigrationOpsOf returns the migration operation for an element type that
// needs no record codec of its own: E's typed codec when it has one,
// otherwise by reference.
func MigrationOpsOf[E any]() *MigrationOps[E] {
	return OncePerType(func() *MigrationOps[E] {
		codec := transport.CodecOf[E]()
		return RegisterMigrationOps("core.migrate["+codec.Name+"]", codec)
	})
}

// RunMigration executes the collective redistribution protocol described by
// spec.  Every location must call it with an equivalent spec (the usual SPMD
// discipline); the container must be quiescent (no element methods in
// flight — callers typically fence first).
func RunMigration[E any, B BContainer](loc *runtime.Location, spec MigrationSpec[E, B]) {
	self := loc.ID()

	// Phase 1: staging storage and collective registration.
	staging := make(map[partition.BCID]B, len(spec.NewLocal))
	for _, b := range spec.NewLocal {
		staging[b] = spec.Alloc(b)
	}
	m := &migrator[E, B]{staging: staging, place: spec.Place}
	h := loc.RegisterObject(m)
	loc.Barrier()

	// Phase 2: route every locally stored element to its new owner.
	spec.Enumerate(func(e E) {
		b, owner := spec.Route(e)
		if owner == self {
			m.recv(b, e)
			return
		}
		var bytes int
		if spec.Bytes != nil {
			bytes = spec.Bytes(e)
		} else {
			bytes = loc.PayloadBytes(e)
		}
		a := getMigArgs[E]()
		a.bcid, a.elem = b, e
		loc.AsyncRMIOpSized(owner, h, bytes, spec.Ops.op, a)
	})
	loc.Fence()

	// Phase 3: install the staged storage, retire the migration target.
	lm := NewLocationManager[B]()
	for _, b := range spec.NewLocal {
		lm.Add(staging[b])
	}
	spec.Install(lm)
	loc.UnregisterObject(h)
	loc.Barrier()
}

// IndexedElem is the element record shipped by indexed-container
// redistributions: a GID and its value.
type IndexedElem[T any] struct {
	GID int64
	Val T
}

// IndexedStore is the base-container surface an indexed redistribution
// needs: per-GID stores into the staging storage and enumeration of the
// current elements.  *bcontainer.Array[T] and *bcontainer.Vector[T] satisfy
// it.
type IndexedStore[T any] interface {
	BContainer
	Set(gid int64, val T)
	Range(fn func(gid int64, val T) bool)
}

// ElemBytes returns the simulated marshalled size of one indexed element of
// type T: the 8-byte GID plus the in-memory size of the value.
func ElemBytes[T any]() int {
	var t T
	return 8 + int(unsafe.Sizeof(t))
}

// indexedMigOpsFor returns the migration operation for IndexedElem[T]: one
// registration serves every indexed container at the same T.
func indexedMigOpsFor[T any]() *MigrationOps[IndexedElem[T]] {
	return OncePerType(func() *MigrationOps[IndexedElem[T]] {
		codec := transport.CodecOf[T]()
		return RegisterMigrationOps("core.indexed["+codec.Name+"]", transport.Derive("core.indexed-elem["+codec.Name+"]",
			func(b *transport.Buffer, v IndexedElem[T]) {
				b.PutVarint(v.GID)
				codec.Encode(b, v.Val)
			},
			func(b *transport.Buffer) IndexedElem[T] {
				return IndexedElem[T]{GID: b.Varint(), Val: codec.Decode(b)}
			},
			codec))
	})
}

// RedistributeIndexed migrates the elements of a one-dimensional indexed
// container (pArray, pVector) into freshly allocated storage for (newPart,
// newMapper) and hands the completed location manager to install, which
// must also swap in the container's new resolver and metadata.  Collective.
func RedistributeIndexed[T any, B IndexedStore[T]](
	c *Container[int64, B],
	newPart partition.Indexed,
	newMapper partition.Mapper,
	alloc func(b partition.BCID, dom domain.Range1D) B,
	install func(lm *LocationManager[B]),
) {
	loc := c.Location()
	elemBytes := ElemBytes[T]()
	RunMigration(loc, MigrationSpec[IndexedElem[T], B]{
		NewLocal: newMapper.LocalBCIDs(loc.ID()),
		Alloc:    func(b partition.BCID) B { return alloc(b, newPart.SubDomain(b)) },
		Enumerate: func(emit func(IndexedElem[T])) {
			c.ForEachLocalBC(Read, func(bc B) {
				bc.Range(func(gid int64, val T) bool {
					emit(IndexedElem[T]{GID: gid, Val: val})
					return true
				})
			})
		},
		Route: func(e IndexedElem[T]) (partition.BCID, int) {
			info := newPart.Find(e.GID)
			return info.BCID, newMapper.Map(info.BCID)
		},
		Place:   func(bc B, e IndexedElem[T]) { bc.Set(e.GID, e.Val) },
		Bytes:   func(IndexedElem[T]) int { return elemBytes },
		Ops:     indexedMigOpsFor[T](),
		Install: install,
	})
}
