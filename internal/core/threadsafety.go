package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/partition"
)

// LockGranularity selects how much state a method invocation locks while it
// runs (Chapter VI, Section D): nothing, one element, one base container, or
// all local state of the container.
type LockGranularity int

// Lock granularities, mirroring the paper's NONE / ELEMENT / BCONTAINER /
// LOCAL method attributes.
const (
	LockNone LockGranularity = iota
	LockElement
	LockBContainer
	LockLocal
)

// AccessMode describes whether a method reads or writes the state it locks.
type AccessMode int

// Access modes for data and metadata.
const (
	Read AccessMode = iota
	Write
)

// MethodPolicy is one row of the paper's locking-policy table: the
// granularity and data/metadata access modes of one container method.
type MethodPolicy struct {
	Granularity LockGranularity
	Data        AccessMode
	Metadata    AccessMode
}

// PolicyTable maps method identifiers to their locking policies.  Containers
// populate it in their constructors (see the pVector example in the paper)
// and the thread-safety manager consults it on every invocation.
type PolicyTable map[string]MethodPolicy

// ThreadSafety is the thread-safety manager concept (Chapter VI, Section C).
// The distribution manager brackets metadata queries and bContainer actions
// with these calls; implementations decide what, if anything, to lock.
type ThreadSafety interface {
	// MetadataAccessPre/Post bracket accesses to the partition and other
	// distribution metadata.
	MetadataAccessPre(mode AccessMode)
	MetadataAccessPost(mode AccessMode)
	// DataAccessPre/Post bracket the execution of an action on a base
	// container.
	DataAccessPre(b partition.BCID, mode AccessMode)
	DataAccessPost(b partition.BCID, mode AccessMode)
	// Retain tells the manager that the location now stores exactly the base
	// containers in live (Container.ReplaceLocationManager calls it after a
	// redistribution installed a new registry): whatever the manager keeps
	// per base container lives as long as the registry entry does.
	Retain(live []partition.BCID)
}

// acquire and release take and drop l shared or exclusive, as mode says.
func acquire(l *sync.RWMutex, mode AccessMode) {
	if mode == Write {
		l.Lock()
	} else {
		l.RLock()
	}
}

func release(l *sync.RWMutex, mode AccessMode) {
	if mode == Write {
		l.Unlock()
	} else {
		l.RUnlock()
	}
}

// NoLocking performs no synchronisation.  It is the right manager for
// read-only phases or when the algorithm's task dependence graph already
// guarantees exclusive access (the paper's NONE customisation).
type NoLocking struct{}

// MetadataAccessPre is a no-op.
func (NoLocking) MetadataAccessPre(AccessMode) {}

// MetadataAccessPost is a no-op.
func (NoLocking) MetadataAccessPost(AccessMode) {}

// DataAccessPre is a no-op.
func (NoLocking) DataAccessPre(partition.BCID, AccessMode) {}

// DataAccessPost is a no-op.
func (NoLocking) DataAccessPost(partition.BCID, AccessMode) {}

// Retain is a no-op.
func (NoLocking) Retain([]partition.BCID) {}

// BContainerLocking serialises access per base container with a
// reader/writer lock each, plus one reader/writer lock for the metadata.
// It is the default manager of every pContainer: incoming RMIs (served by
// the location's RMI server goroutine) and local invocations (from the SPMD
// goroutine) may touch the same base container concurrently, and this
// manager makes each method's bContainer access atomic.
//
// The locks live in a table indexed by BCID (BCIDs number a partition's
// sub-domains from zero, so the table is dense) that is only ever replaced
// whole: a bracket finds its lock with one atomic load and one index, and
// only a BCID's first bracket and Retain take the writers' mutex.
type BContainerLocking struct {
	metaMu sync.RWMutex
	mu     sync.Mutex // serialises writers of locks
	locks  atomic.Pointer[[]*sync.RWMutex]
}

// NewBContainerLocking returns a per-bContainer locking manager.
func NewBContainerLocking() *BContainerLocking {
	t := &BContainerLocking{}
	t.locks.Store(new([]*sync.RWMutex))
	return t
}

// lock returns the lock of base container b, or nil when b has none yet.
func (t *BContainerLocking) lock(b partition.BCID) *sync.RWMutex {
	if tab := *t.locks.Load(); uint(b) < uint(len(tab)) {
		return tab[b]
	}
	return nil
}

// addLock gives base container b its lock on b's first bracket.
func (t *BContainerLocking) addLock(b partition.BCID) *sync.RWMutex {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l := t.lock(b); l != nil {
		return l
	}
	old := *t.locks.Load()
	tab := make([]*sync.RWMutex, max(len(old), int(b)+1))
	copy(tab, old)
	tab[b] = new(sync.RWMutex)
	t.locks.Store(&tab)
	return tab[b]
}

// Retain drops the locks of base containers that left the location.  A lock
// goes only while nothing holds it (a busy one waits for the next Retain),
// and goes while Retain itself holds it exclusively, so whoever acquires it
// afterwards finds the table changed and starts over (see DataAccessPre).
func (t *BContainerLocking) Retain(live []partition.BCID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.locks.Load()
	tab := make([]*sync.RWMutex, len(old))
	for _, b := range live {
		if int(b) < len(old) {
			tab[b] = old[b]
		}
	}
	var dropped []*sync.RWMutex
	for b, l := range old {
		if l == nil || tab[b] != nil {
			continue
		}
		if l.TryLock() {
			dropped = append(dropped, l)
		} else {
			tab[b] = l
		}
	}
	t.locks.Store(&tab)
	for _, l := range dropped {
		l.Unlock()
	}
}

// MetadataAccessPre acquires the metadata lock.
func (t *BContainerLocking) MetadataAccessPre(mode AccessMode) { acquire(&t.metaMu, mode) }

// MetadataAccessPost releases the metadata lock.
func (t *BContainerLocking) MetadataAccessPost(mode AccessMode) { release(&t.metaMu, mode) }

// DataAccessPre acquires the lock of base container b.  The lock it returns
// holding is the one the table names for b: one that Retain dropped while
// this call waited for it is released again and the lookup repeated, so the
// table cannot change under a held lock and DataAccessPost finds the same one.
func (t *BContainerLocking) DataAccessPre(b partition.BCID, mode AccessMode) {
	for {
		l := t.lock(b)
		if l == nil {
			l = t.addLock(b)
		}
		acquire(l, mode)
		if t.lock(b) == l {
			return
		}
		release(l, mode)
	}
}

// DataAccessPost releases the lock of base container b.
func (t *BContainerLocking) DataAccessPost(b partition.BCID, mode AccessMode) {
	release(t.lock(b), mode)
}

// LocationLocking serialises every data access on the location with a single
// reader/writer lock (the paper's LOCAL granularity), which some dynamic
// containers need for methods that restructure several base containers at
// once.
type LocationLocking struct {
	metaMu sync.RWMutex
	dataMu sync.RWMutex
}

// NewLocationLocking returns a whole-location locking manager.
func NewLocationLocking() *LocationLocking { return &LocationLocking{} }

// MetadataAccessPre acquires the metadata lock.
func (t *LocationLocking) MetadataAccessPre(mode AccessMode) { acquire(&t.metaMu, mode) }

// MetadataAccessPost releases the metadata lock.
func (t *LocationLocking) MetadataAccessPost(mode AccessMode) { release(&t.metaMu, mode) }

// DataAccessPre acquires the location-wide data lock.
func (t *LocationLocking) DataAccessPre(_ partition.BCID, mode AccessMode) { acquire(&t.dataMu, mode) }

// DataAccessPost releases the location-wide data lock.
func (t *LocationLocking) DataAccessPost(_ partition.BCID, mode AccessMode) { release(&t.dataMu, mode) }

// Retain is a no-op: the location-wide lock outlives every base container.
func (t *LocationLocking) Retain([]partition.BCID) {}

// LockPolicy names the built-in thread-safety managers selectable through
// Traits.
type LockPolicy int

// Built-in locking policies.
const (
	// PolicyPerBContainer is the default: one reader/writer lock per base
	// container.
	PolicyPerBContainer LockPolicy = iota
	// PolicyPerLocation serialises all data accesses on a location.
	PolicyPerLocation
	// PolicyNone disables framework locking entirely.
	PolicyNone
)

// newThreadSafety instantiates the manager selected by a policy.
func newThreadSafety(p LockPolicy) ThreadSafety {
	switch p {
	case PolicyPerLocation:
		return NewLocationLocking()
	case PolicyNone:
		return NoLocking{}
	default:
		return NewBContainerLocking()
	}
}
