// Package plist implements the STAPL pList (Chapter X): a distributed
// doubly-linked sequence.  Unlike pVector, all dynamic operations
// (push_front/push_back/insert/erase and the parallel-friendly
// push_anywhere) run in constant time, because element identifiers are
// stable (location id + local node id) and never shift when other elements
// are inserted or removed.
//
// Two address-translation modes are supported:
//
//   - encoded (default): the storage location is embedded in the GID, so
//     resolution is O(1) with no directory — but elements can never move,
//     which rules out redistribution and load balancing;
//   - directory-backed (WithDirectory): GIDs carry only the element's birth
//     location and a counter, and the current storage location is recorded
//     in the shared distributed directory (core.Directory).  GIDs stay valid
//     when storage moves, unlocking MigrateElements / Redistribute /
//     Rebalance; repeat remote accesses skip the directory hop through the
//     per-location resolution cache.
package plist

import (
	"fmt"
	"sync"

	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/runtime"
)

// GID identifies one pList element.  In the encoded mode Loc is the location
// whose base container stores the element and ID the stable node identifier
// within that base container.  In the directory-backed mode Loc is the
// element's birth location (stable identity, not placement) and ID a
// globally unique identifier encoding birth location and counter; the
// current storage location is whatever the directory says.
type GID struct {
	Loc int32
	ID  int64
}

// InvalidGID is the reserved "no element" identifier.
var InvalidGID = GID{Loc: -1, ID: -1}

// Valid reports whether the GID refers to an element.
func (g GID) Valid() bool { return g.Loc >= 0 && g.ID >= 0 }

// String formats the GID for diagnostics.
func (g GID) String() string { return fmt.Sprintf("(%d,%d)", g.Loc, g.ID) }

// gidShift positions the birth location in the high bits of a
// directory-mode identifier (like pGraph's descriptor encoding).
const gidShift = 40

// checkValid fails fast on the reserved "no element" identifier: resolving
// it used to return partition.Forward(0) and ping-pong between locations
// until the forward-hop limit panicked far from the caller.
func checkValid(g GID) {
	if !g.Valid() {
		panic(fmt.Sprintf("plist: invalid GID %v does not address an element", g))
	}
}

// listResolver maps an encoded-mode GID to the base container on its home
// location: the location is embedded in the identifier, so resolution is
// O(1) with no directory.
type listResolver struct {
	mapper partition.Mapper
}

func (r listResolver) Find(g GID) partition.Info {
	checkValid(g)
	return partition.Found(partition.BCID(g.Loc))
}

func (r listResolver) OwnerOf(b partition.BCID) int { return r.mapper.Map(b) }

// listDirResolver resolves a directory-mode GID through the local base
// container first (under the data read bracket: resolution may race with
// local inserts), then the shared distributed directory — cache, then home.
type listDirResolver[T any] struct {
	l *List[T]
}

func (r listDirResolver[T]) Find(g GID) partition.Info {
	checkValid(g)
	self := r.l.Location().ID()
	b := partition.BCID(self)
	if bc, ok := r.l.LocationManager().Get(b); ok {
		r.l.ThreadSafety().DataAccessPre(b, core.Read)
		local := bc.Contains(g.ID)
		r.l.ThreadSafety().DataAccessPost(b, core.Read)
		if local {
			return partition.Found(b)
		}
	}
	return r.l.dir.Resolve(g)
}

func (r listDirResolver[T]) OwnerOf(b partition.BCID) int { return int(b) }

// List is the per-location representative of a pList of element type T.
type List[T any] struct {
	core.Container[GID, *bcontainer.List[T]]

	// directory marks the directory-backed mode; dir is nil otherwise.
	directory bool
	dir       *core.Directory[GID]

	// listHandle addresses the outer List representative for list-level
	// RMIs (GID allocation on the destination location).
	listHandle runtime.Handle

	// Directory-mode identifier allocation.
	ctrMu   sync.Mutex
	nextCtr int64

	// ops are the registered element operations for T.  See ops.go.
	ops *elemOps[T]
}

// Option customises pList construction.
type Option func(*options)

type options struct {
	traits    core.Traits
	hasTr     bool
	directory bool
	dirCache  bool
}

// WithTraits overrides the default traits.
func WithTraits(t core.Traits) Option { return func(o *options) { o.traits = t; o.hasTr = true } }

// WithDirectory selects the directory-backed mode: stable GIDs recorded in
// the shared distributed directory, surviving storage movement.
func WithDirectory() Option { return func(o *options) { o.directory = true } }

// WithDirectoryCache enables or disables the directory's per-location
// resolution cache (directory-backed mode only; default enabled).
func WithDirectoryCache(on bool) Option { return func(o *options) { o.dirCache = on } }

// New constructs an empty pList with one list base container per location.
// Collective.
func New[T any](loc *runtime.Location, opts ...Option) *List[T] {
	o := options{dirCache: true}
	for _, fn := range opts {
		fn(&o)
	}
	if !o.hasTr {
		o.traits = core.DefaultTraits()
	}
	p := loc.NumLocations()
	l := &List[T]{directory: o.directory, ops: elemOpsFor[T]()}
	if o.directory {
		l.InitContainer(loc, listDirResolver[T]{l: l}, o.traits)
		l.dir = core.NewDirectory(loc, core.DirectoryConfig[GID]{
			Hash:  func(g GID) uint64 { return partition.Int64Hash(g.ID) },
			Cache: o.dirCache,
		})
	} else {
		l.InitContainer(loc, listResolver{mapper: partition.NewBlockedMapper(p, p)}, o.traits)
	}
	l.LocationManager().Add(bcontainer.NewList[T](partition.BCID(loc.ID())))
	l.listHandle = loc.RegisterObject(l)
	// Constructors are collective: wait for every representative.
	loc.Barrier()
	return l
}

// DirectoryBacked reports whether this list runs in the directory-backed
// mode.
func (l *List[T]) DirectoryBacked() bool { return l.directory }

// Directory exposes the shared distributed directory of the directory-backed
// mode (nil in the encoded mode); tests and experiments use it to inspect
// cache behaviour.
func (l *List[T]) Directory() *core.Directory[GID] { return l.dir }

// local returns this location's list base container.
func (l *List[T]) local() *bcontainer.List[T] {
	return l.LocationManager().MustGet(partition.BCID(l.Location().ID()))
}

// lockedLocal runs fn on this location's base container under the write (or
// read) bracket of the thread-safety manager and returns fn's result.
func (l *List[T]) lockedLocal(mode core.AccessMode, fn func(bc *bcontainer.List[T]) any) any {
	b := partition.BCID(l.Location().ID())
	l.ThreadSafety().DataAccessPre(b, mode)
	defer l.ThreadSafety().DataAccessPost(b, mode)
	return fn(l.local())
}

// allocGID allocates a globally unique directory-mode identifier born on
// this location.
func (l *List[T]) allocGID() GID {
	l.ctrMu.Lock()
	ctr := l.nextCtr
	l.nextCtr++
	l.ctrMu.Unlock()
	self := l.Location().ID()
	return GID{Loc: int32(self), ID: int64(self)<<gidShift | ctr}
}

// gidAt reconstructs the GID of the node with the given id stored on
// storage: in the directory mode the identity (birth location) is encoded in
// the id itself; in the encoded mode storage is the identity.
func (l *List[T]) gidAt(storage int, id int64) GID {
	if l.directory {
		return GID{Loc: int32(id >> gidShift), ID: id}
	}
	return GID{Loc: int32(storage), ID: id}
}

// atList runs fn against the List representative on location dest
// (asynchronously; runs immediately when dest is this location).
func (l *List[T]) atList(dest int, fn func(ol *List[T])) {
	l.Location().AsyncRMI(dest, l.listHandle, func(obj any, _ *runtime.Location) {
		fn(obj.(*List[T]))
	})
}

// pushLocal appends val to this location's segment and publishes the new
// element's directory entry (directory mode) or derives the encoded GID.
func (l *List[T]) pushLocal(val T) GID {
	if l.directory {
		gid := l.allocGID()
		l.lockedLocal(core.Write, func(bc *bcontainer.List[T]) any {
			bc.PushBackID(gid.ID, val)
			return nil
		})
		l.dir.Publish(gid, partition.BCID(l.Location().ID()))
		return gid
	}
	id := l.lockedLocal(core.Write, func(bc *bcontainer.List[T]) any { return bc.PushBack(val) }).(int64)
	return GID{Loc: int32(l.Location().ID()), ID: id}
}

// PushAnywhere adds val at an unspecified position — on the calling
// location, with no element communication.  It is the paper's
// insert-anywhere extension that lets parallel producers fill a list without
// contending for its global ends.  It returns the new element's GID.  In the
// directory mode the ownership entry is published asynchronously (one small
// RMI to the GID's home), globally visible by the next fence.
func (l *List[T]) PushAnywhere(val T) GID {
	return l.pushLocal(val)
}

// PushBack appends val at the global end of the sequence (the last
// location's segment).  Asynchronous.
func (l *List[T]) PushBack(val T) {
	last := l.Location().NumLocations() - 1
	if l.directory {
		l.atList(last, func(ol *List[T]) { ol.pushLocal(val) })
		return
	}
	if last == l.Location().ID() {
		l.lockedLocal(core.Write, func(bc *bcontainer.List[T]) any { return bc.PushBack(val) })
		return
	}
	l.InvokeAt(last, func(_ *runtime.Location, self *core.Container[GID, *bcontainer.List[T]]) {
		b := partition.BCID(last)
		self.ThreadSafety().DataAccessPre(b, core.Write)
		self.LocationManager().MustGet(b).PushBack(val)
		self.ThreadSafety().DataAccessPost(b, core.Write)
	})
}

// PushFront prepends val at the global beginning of the sequence (location
// 0's segment).  Asynchronous.
func (l *List[T]) PushFront(val T) {
	if l.directory {
		l.atList(0, func(ol *List[T]) {
			gid := ol.allocGID()
			ol.lockedLocal(core.Write, func(bc *bcontainer.List[T]) any {
				bc.PushFrontID(gid.ID, val)
				return nil
			})
			ol.dir.Publish(gid, partition.BCID(ol.Location().ID()))
		})
		return
	}
	if l.Location().ID() == 0 {
		l.lockedLocal(core.Write, func(bc *bcontainer.List[T]) any { return bc.PushFront(val) })
		return
	}
	l.InvokeAt(0, func(_ *runtime.Location, self *core.Container[GID, *bcontainer.List[T]]) {
		b := partition.BCID(0)
		self.ThreadSafety().DataAccessPre(b, core.Write)
		self.LocationManager().MustGet(b).PushFront(val)
		self.ThreadSafety().DataAccessPost(b, core.Write)
	})
}

// InsertAsync inserts val before the element identified by gid.
// Asynchronous; constant work on the owning location.
func (l *List[T]) InsertAsync(gid GID, val T) {
	if l.directory {
		h := l.listHandle
		l.Invoke(gid, core.Write, func(loc *runtime.Location, bc *bcontainer.List[T]) {
			ol := loc.Object(h).(*List[T])
			ng := ol.allocGID()
			bc.InsertBeforeID(gid.ID, ng.ID, val)
			ol.dir.Publish(ng, partition.BCID(loc.ID()))
		})
		return
	}
	l.Invoke(gid, core.Write, func(_ *runtime.Location, bc *bcontainer.List[T]) {
		bc.InsertBefore(gid.ID, val)
	})
}

// insertPlacement carries a synchronous insert's result back to the caller:
// the new GID and the location that stored it.
type insertPlacement struct {
	gid GID
	at  int
}

// Insert inserts val before gid and returns the new element's GID
// (synchronous).  In the directory mode the new entry is published
// asynchronously (globally visible by the next fence), but the caller's
// resolution cache is primed with the placement the reply carried, so the
// caller can use the returned GID immediately.
func (l *List[T]) Insert(gid GID, val T) GID {
	if l.directory {
		h := l.listHandle
		res := l.InvokeRet(gid, core.Write, func(loc *runtime.Location, bc *bcontainer.List[T]) any {
			ol := loc.Object(h).(*List[T])
			ng := ol.allocGID()
			bc.InsertBeforeID(gid.ID, ng.ID, val)
			ol.dir.Publish(ng, partition.BCID(loc.ID()))
			return insertPlacement{gid: ng, at: loc.ID()}
		}).(insertPlacement)
		l.dir.Prime(res.gid, partition.BCID(res.at))
		return res.gid
	}
	id := l.InvokeRet(gid, core.Write, func(_ *runtime.Location, bc *bcontainer.List[T]) any {
		return bc.InsertBefore(gid.ID, val)
	}).(int64)
	return GID{Loc: gid.Loc, ID: id}
}

// Erase removes the element identified by gid.  Asynchronous.
func (l *List[T]) Erase(gid GID) {
	if l.directory {
		h := l.listHandle
		l.Invoke(gid, core.Write, func(loc *runtime.Location, bc *bcontainer.List[T]) {
			bc.Erase(gid.ID)
			loc.Object(h).(*List[T]).dir.Unpublish(gid)
		})
		return
	}
	l.Invoke(gid, core.Write, func(_ *runtime.Location, bc *bcontainer.List[T]) { bc.Erase(gid.ID) })
}

// Get returns the value of the element identified by gid (synchronous).
func (l *List[T]) Get(gid GID) T {
	return l.ops.get.Sync(&l.Container, gid, struct{}{})
}

// GetSplit starts a split-phase read of the element identified by gid.
func (l *List[T]) GetSplit(gid GID) *runtime.FutureOf[T] {
	return runtime.NewFutureOf[T](l.ops.get.Split(&l.Container, gid, struct{}{}))
}

// Set replaces the value of the element identified by gid.  Asynchronous.
func (l *List[T]) Set(gid GID, val T) {
	l.ops.set.Async(&l.Container, gid, val, 0)
}

// Apply applies fn to the element identified by gid in place. Asynchronous.
func (l *List[T]) Apply(gid GID, fn func(T) T) {
	l.Invoke(gid, core.Write, func(_ *runtime.Location, bc *bcontainer.List[T]) { bc.Apply(gid.ID, fn) })
}

// Size returns the global number of elements.  Collective.
func (l *List[T]) Size() int64 { return l.GlobalSize() }

// LocalValues returns the values stored on this location, in segment order.
func (l *List[T]) LocalValues() []T {
	return l.lockedLocal(core.Read, func(bc *bcontainer.List[T]) any { return bc.Values() }).([]T)
}

// LocalRange applies fn to every locally stored (GID, value) pair in segment
// order.
func (l *List[T]) LocalRange(fn func(gid GID, val T) bool) {
	self := l.Location().ID()
	l.lockedLocal(core.Read, func(bc *bcontainer.List[T]) any {
		bc.Range(func(id int64, val T) bool { return fn(l.gidAt(self, id), val) })
		return nil
	})
}

// LocalUpdate replaces every locally stored element with fn's result.
func (l *List[T]) LocalUpdate(fn func(gid GID, val T) T) {
	self := l.Location().ID()
	l.lockedLocal(core.Write, func(bc *bcontainer.List[T]) any {
		bc.Update(func(id int64, val T) T { return fn(l.gidAt(self, id), val) })
		return nil
	})
}

// LocalFront returns the GID of this location's first segment element, or
// InvalidGID if the segment is empty.
func (l *List[T]) LocalFront() GID {
	id := l.lockedLocal(core.Read, func(bc *bcontainer.List[T]) any { return bc.FrontID() }).(int64)
	if id < 0 {
		return InvalidGID
	}
	return l.gidAt(l.Location().ID(), id)
}

// LocalBack returns the GID of this location's last segment element, or
// InvalidGID if the segment is empty.
func (l *List[T]) LocalBack() GID {
	id := l.lockedLocal(core.Read, func(bc *bcontainer.List[T]) any { return bc.BackID() }).(int64)
	if id < 0 {
		return InvalidGID
	}
	return l.gidAt(l.Location().ID(), id)
}

// segmentStep is the result of asking an element's storage location for its
// successor: the next node id within the segment (or -1 at the segment end)
// and the location that answered.
type segmentStep struct {
	next int64
	at   int
}

// frontIDAt returns the first node id of location d's segment, or -1.
func (l *List[T]) frontIDAt(d int) int64 {
	return l.InvokeAtRet(d, func(_ *runtime.Location, self *core.Container[GID, *bcontainer.List[T]]) any {
		b := partition.BCID(d)
		self.ThreadSafety().DataAccessPre(b, core.Read)
		defer self.ThreadSafety().DataAccessPost(b, core.Read)
		return self.LocationManager().MustGet(b).FrontID()
	}).(int64)
}

// Next returns the GID following gid in the global sequence, or InvalidGID
// at the end.  Crossing a segment boundary moves to the next non-empty
// location's segment.  Synchronous.
func (l *List[T]) Next(gid GID) GID {
	res := l.InvokeRet(gid, core.Read, func(loc *runtime.Location, bc *bcontainer.List[T]) any {
		return segmentStep{next: bc.NextID(gid.ID), at: loc.ID()}
	}).(segmentStep)
	if res.next >= 0 {
		return l.gidAt(res.at, res.next)
	}
	// Move to the first element of the next non-empty segment.
	for d := res.at + 1; d < l.Location().NumLocations(); d++ {
		if front := l.frontIDAt(d); front >= 0 {
			return l.gidAt(d, front)
		}
	}
	return InvalidGID
}

// Begin returns the GID of the first element of the global sequence, or
// InvalidGID if the list is empty.  Synchronous.
func (l *List[T]) Begin() GID {
	for d := 0; d < l.Location().NumLocations(); d++ {
		if front := l.frontIDAt(d); front >= 0 {
			return l.gidAt(d, front)
		}
	}
	return InvalidGID
}

// MemorySize returns the container-wide data/metadata footprint. Collective.
func (l *List[T]) MemorySize() core.MemoryUsage {
	extra := int64(32)
	if l.dir != nil {
		extra += l.dir.MemoryBytes()
	}
	return l.GlobalMemory(extra)
}
