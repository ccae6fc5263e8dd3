// Package pgraph implements the STAPL pGraph (Chapter XI): a relational
// pContainer storing vertices and edges distributed over the locations,
// globally addressable by vertex descriptor.
//
// Three address-translation strategies from the paper's evaluation are
// supported:
//
//   - Static: the vertex set [0, N) is fixed at construction and partitioned
//     with a closed form (like pArray); add_vertex is rejected.
//   - DynamicEncoded ("dynamic, no forwarding"): vertices can be added and
//     removed at run time; the owner location is encoded in the descriptor,
//     so translation stays closed-form.
//   - DynamicDirectory ("dynamic, with forwarding"): ownership is recorded
//     in a distributed directory keyed by descriptor hash; resolving a
//     non-local vertex forwards the request to its directory location and
//     from there to its home (the method-forwarding path of Fig. 7).
package pgraph

import (
	"fmt"
	"sync"

	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/partition"
	"repro/internal/runtime"
)

// The DynamicDirectory strategy runs on the shared distributed-directory
// subsystem (core.Directory): ownership entries live on the home location
// hash(vd) % P, remote resolutions forward through the home, and a
// per-location resolution cache removes the directory hop from repeat
// remote accesses (see internal/core/directory.go).

// Strategy selects the pGraph address-translation scheme.
type Strategy int

// Address-translation strategies.
const (
	Static Strategy = iota
	DynamicEncoded
	DynamicDirectory
)

// String names the strategy for reports.
func (s Strategy) String() string {
	switch s {
	case Static:
		return "static"
	case DynamicEncoded:
		return "dynamic-no-forwarding"
	default:
		return "dynamic-forwarding"
	}
}

// descriptor encoding for dynamic strategies: the high bits carry the home
// location, the low bits a per-location counter.
const homeShift = 40

func encodeDescriptor(home int, counter int64) int64 { return int64(home)<<homeShift | counter }

func descriptorHome(vd int64) int { return int(vd >> homeShift) }

// Edge is re-exported from the base container for callers of OutEdges.
type Edge[EP any] = bcontainer.Edge[EP]

// Vertex is re-exported from the base container for local traversals.
type Vertex[VP any, EP any] = bcontainer.Vertex[VP, EP]

// Graph is the per-location representative of a pGraph with vertex property
// VP and edge property EP.
type Graph[VP any, EP any] struct {
	core.Container[int64, *bcontainer.Graph[VP, EP]]

	directed bool
	multi    bool

	// ops are the registered element operations for this (VP, EP) pair.  See
	// ops.go.
	ops      *graphOps[VP, EP]
	strategy Strategy

	staticN    int64
	staticPart partition.Indexed

	// Dynamic descriptor allocation.
	ctrMu   sync.Mutex
	nextCtr int64

	// dir is the shared distributed directory recording vd → home for the
	// DynamicDirectory strategy (nil for the other strategies).
	dir *core.Directory[int64]

	// graphHandle addresses the outer Graph representative for graph-level
	// RMIs (reverse-edge insertion, visit dispatch).
	graphHandle runtime.Handle
}

// Options configure pGraph construction.
type Options struct {
	// Directed selects a directed graph (default true).  Undirected graphs
	// store every edge with both endpoints.
	Directed bool
	// Multi allows parallel edges between the same endpoints.
	Multi bool
	// Strategy selects the address-translation scheme (default Static when
	// N > 0, DynamicEncoded otherwise).
	Strategy Strategy
	// HasStrategy marks Strategy as explicitly set.
	HasStrategy bool
	// DirectoryCache disables the directory's per-location resolution cache
	// when false (DynamicDirectory strategy only; default on).
	DirectoryCache bool
	// Traits overrides the default container traits.
	Traits *core.Traits
}

// Option mutates Options.
type Option func(*Options)

// WithDirected selects directedness.
func WithDirected(d bool) Option { return func(o *Options) { o.Directed = d } }

// WithMulti allows or rejects parallel edges.
func WithMulti(m bool) Option { return func(o *Options) { o.Multi = m } }

// WithStrategy selects the address-translation strategy.
func WithStrategy(s Strategy) Option {
	return func(o *Options) { o.Strategy = s; o.HasStrategy = true }
}

// WithDirectoryCache enables or disables the per-location resolution cache
// of the DynamicDirectory strategy (default enabled).  Disabling it restores
// the pure forwarding path of the paper's "dynamic, with forwarding"
// partition — every remote access pays the directory hop — which the
// `directory` bench experiment uses as its baseline.
func WithDirectoryCache(on bool) Option {
	return func(o *Options) { o.DirectoryCache = on }
}

// WithTraits overrides the default traits.
func WithTraits(t core.Traits) Option { return func(o *Options) { o.Traits = &t } }

// staticResolver is the closed-form translation of the Static strategy.
type staticResolver struct {
	part   partition.Indexed
	mapper partition.Mapper
}

func (r staticResolver) Find(vd int64) partition.Info { return r.part.Find(vd) }
func (r staticResolver) OwnerOf(b partition.BCID) int { return r.mapper.Map(b) }

// encodedResolver extracts the owner from the descriptor (dynamic, no
// forwarding).
type encodedResolver struct{}

func (encodedResolver) Find(vd int64) partition.Info {
	return partition.Found(partition.BCID(descriptorHome(vd)))
}
func (encodedResolver) OwnerOf(b partition.BCID) int { return int(b) }

// directoryResolver resolves through the local bContainer first, then the
// shared distributed directory (cache, then home), forwarding when neither
// knows the vertex.
type directoryResolver[VP any, EP any] struct {
	g *Graph[VP, EP]
}

func (r directoryResolver[VP, EP]) Find(vd int64) partition.Info {
	self := r.g.Location().ID()
	// Fast path: the vertex is stored locally.
	if bc, ok := r.g.LocationManager().Get(partition.BCID(self)); ok && bc.HasVertex(vd) {
		return partition.Found(partition.BCID(self))
	}
	return r.g.dir.Resolve(vd)
}

func (r directoryResolver[VP, EP]) OwnerOf(b partition.BCID) int { return int(b) }

// New constructs a pGraph.  n is the number of pre-created vertices (0..n-1)
// for the Static strategy; dynamic strategies typically pass n == 0 and add
// vertices at run time.  Collective.
func New[VP any, EP any](loc *runtime.Location, n int64, opts ...Option) *Graph[VP, EP] {
	o := Options{Directed: true, Multi: true, DirectoryCache: true}
	for _, fn := range opts {
		fn(&o)
	}
	if !o.HasStrategy {
		if n > 0 {
			o.Strategy = Static
		} else {
			o.Strategy = DynamicEncoded
		}
	}
	traits := core.DefaultTraits()
	if o.Traits != nil {
		traits = *o.Traits
	}
	g := &Graph[VP, EP]{
		directed: o.Directed,
		multi:    o.Multi,
		strategy: o.Strategy,
		staticN:  n,
		ops:      graphOpsFor[VP, EP](),
	}
	p := loc.NumLocations()
	switch o.Strategy {
	case Static:
		part := partition.NewBalanced(domain.NewRange1D(0, n), p)
		g.staticPart = part
		// One bContainer per location holding that location's balanced
		// blocks (the mapper is the identity over locations).
		g.InitContainer(loc, staticResolver{part: part, mapper: partition.NewBlockedMapper(part.NumSubdomains(), p)}, traits)
	case DynamicEncoded:
		g.InitContainer(loc, encodedResolver{}, traits)
	case DynamicDirectory:
		g.InitContainer(loc, directoryResolver[VP, EP]{g: g}, traits)
		g.dir = core.NewDirectory(loc, core.DirectoryConfig[int64]{
			Hash:  partition.Int64Hash,
			Cache: o.DirectoryCache,
		})
	}
	// One graph base container per location, identified by the location id.
	bc := bcontainer.NewGraph[VP, EP](partition.BCID(loc.ID()))
	g.LocationManager().Add(bc)
	g.graphHandle = loc.RegisterObject(g)
	// Pre-create the static vertex set.
	if o.Strategy == Static {
		var zero VP
		for _, b := range partition.NewBlockedMapper(g.staticPart.NumSubdomains(), p).LocalBCIDs(loc.ID()) {
			d := g.staticPart.SubDomain(b)
			for vd := d.Lo; vd < d.Hi; vd++ {
				bc.AddVertex(vd, zero)
			}
		}
	}
	// Constructors are collective: no location may address peers before
	// every representative has registered both of its handles.
	loc.Barrier()
	return g
}

// Strategy returns the address-translation strategy in use.
func (g *Graph[VP, EP]) Strategy() Strategy { return g.strategy }

// Directed reports whether the graph is directed.
func (g *Graph[VP, EP]) Directed() bool { return g.directed }

// local returns this location's graph base container.
func (g *Graph[VP, EP]) local() *bcontainer.Graph[VP, EP] {
	return g.LocationManager().MustGet(partition.BCID(g.Location().ID()))
}

// localBCID returns the BCID of this location's base container.
func (g *Graph[VP, EP]) localBCID() partition.BCID { return partition.BCID(g.Location().ID()) }

// withLocal runs fn on this location's base container under the data
// bracket of the thread-safety manager.
func (g *Graph[VP, EP]) withLocal(mode core.AccessMode, fn func(bc *bcontainer.Graph[VP, EP]) any) any {
	b := g.localBCID()
	g.ThreadSafety().DataAccessPre(b, mode)
	defer g.ThreadSafety().DataAccessPost(b, mode)
	return fn(g.local())
}

// staticResolve panics helpers -------------------------------------------------

// requireDynamic panics when a mutation that needs a dynamic strategy is
// attempted on a static graph (the paper's static partition triggers an
// assertion on add_vertex).
func (g *Graph[VP, EP]) requireDynamic(op string) {
	if g.strategy == Static {
		panic(fmt.Sprintf("pgraph: %s requires a dynamic partition; this graph uses the static strategy", op))
	}
}

// AddVertex creates a new vertex with the given property on this location
// and returns its descriptor.  For the directory strategy the directory
// entry is published asynchronously; it is globally visible by the next
// fence.  Dynamic strategies only.
func (g *Graph[VP, EP]) AddVertex(prop VP) int64 {
	g.requireDynamic("add_vertex")
	loc := g.Location()
	g.ctrMu.Lock()
	ctr := g.nextCtr
	g.nextCtr++
	g.ctrMu.Unlock()
	vd := encodeDescriptor(loc.ID(), ctr)
	g.withLocal(core.Write, func(bc *bcontainer.Graph[VP, EP]) any { return bc.AddVertex(vd, prop) })
	if g.strategy == DynamicDirectory {
		g.dir.Publish(vd, partition.BCID(loc.ID()))
	}
	return vd
}

// AddVertexWithDescriptor creates (or, on a static graph, re-initialises)
// the vertex with an explicit descriptor and property.  The vertex is placed
// on its natural home: the partition's owner for static graphs, the encoded
// home for dynamic ones.  Asynchronous.
func (g *Graph[VP, EP]) AddVertexWithDescriptor(vd int64, prop VP) {
	switch g.strategy {
	case Static:
		g.Invoke(vd, core.Write, func(_ *runtime.Location, bc *bcontainer.Graph[VP, EP]) {
			bc.SetProperty(vd, prop)
		})
	case DynamicEncoded:
		home := descriptorHome(vd)
		g.atGraph(home, func(og *Graph[VP, EP]) {
			og.withLocal(core.Write, func(bc *bcontainer.Graph[VP, EP]) any { return bc.AddVertex(vd, prop) })
		})
	case DynamicDirectory:
		home := descriptorHome(vd)
		g.atGraph(home, func(og *Graph[VP, EP]) {
			og.withLocal(core.Write, func(bc *bcontainer.Graph[VP, EP]) any { return bc.AddVertex(vd, prop) })
			// Publish from the home AFTER the vertex exists: a directory
			// entry must never lead a resolver to a home that has not
			// created the vertex yet.
			og.dir.Publish(vd, partition.BCID(home))
		})
	}
}

// atGraph runs fn against the Graph representative on location dest
// (asynchronously; runs immediately when dest is this location).
func (g *Graph[VP, EP]) atGraph(dest int, fn func(og *Graph[VP, EP])) {
	g.Location().AsyncRMI(dest, g.graphHandle, func(obj any, _ *runtime.Location) {
		fn(obj.(*Graph[VP, EP]))
	})
}

// atGraphRet runs fn against the Graph representative on location dest and
// returns its result (synchronously).
func (g *Graph[VP, EP]) atGraphRet(dest int, fn func(og *Graph[VP, EP]) any) any {
	return g.Location().SyncRMI(dest, g.graphHandle, func(obj any, _ *runtime.Location) any {
		return fn(obj.(*Graph[VP, EP]))
	})
}

// DeleteVertex removes the vertex and its out-edges.  As in the paper the
// operation is not one global transaction: edges pointing to the vertex from
// elsewhere are not chased.  Asynchronous.  Dynamic strategies only.
func (g *Graph[VP, EP]) DeleteVertex(vd int64) {
	g.requireDynamic("delete_vertex")
	g.Invoke(vd, core.Write, func(_ *runtime.Location, bc *bcontainer.Graph[VP, EP]) {
		bc.DeleteVertex(vd)
	})
	if g.strategy == DynamicDirectory {
		g.dir.Unpublish(vd)
	}
}

// Directory exposes the shared distributed directory of the DynamicDirectory
// strategy (nil for the other strategies); tests and experiments use it to
// inspect cache behaviour.
func (g *Graph[VP, EP]) Directory() *core.Directory[int64] { return g.dir }
