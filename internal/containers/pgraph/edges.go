package pgraph

import (
	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/runtime"
)

// AddEdgeAsync adds the edge (src → tgt) with the given property,
// asynchronously (the paper's add_edge_async).  The adjacency record is
// stored with the source vertex; for undirected graphs a mirror record
// (tgt → src) is also stored with the target vertex.
func (g *Graph[VP, EP]) AddEdgeAsync(src, tgt int64, prop EP) {
	multi := g.multi
	bytes := 8 + runtime.PayloadBytes(prop) // target descriptor + property
	g.ops.addEdge.Async(&g.Container, src, edgeMsg[EP]{tgt: tgt, prop: prop, multi: multi}, bytes)
	if !g.directed && src != tgt {
		g.ops.addEdge.Async(&g.Container, tgt, edgeMsg[EP]{tgt: src, prop: prop, multi: multi}, bytes)
	}
}

// AddEdge adds the edge (src → tgt) and blocks until the source-side record
// is stored, reporting whether it was added (false when a duplicate was
// rejected on a non-multi graph).
func (g *Graph[VP, EP]) AddEdge(src, tgt int64, prop EP) bool {
	multi := g.multi
	added := g.InvokeRet(src, core.Write, func(_ *runtime.Location, bc *bcontainer.Graph[VP, EP]) any {
		return bc.AddEdge(src, tgt, prop, multi)
	}).(bool)
	if added && !g.directed && src != tgt {
		g.Invoke(tgt, core.Write, func(_ *runtime.Location, bc *bcontainer.Graph[VP, EP]) {
			bc.AddEdge(tgt, src, prop, multi)
		})
	}
	return added
}

// DeleteEdge removes the first (src → tgt) adjacency record (and the mirror
// record on undirected graphs).  Asynchronous.
func (g *Graph[VP, EP]) DeleteEdge(src, tgt int64) {
	g.Invoke(src, core.Write, func(_ *runtime.Location, bc *bcontainer.Graph[VP, EP]) {
		bc.DeleteEdge(src, tgt)
	})
	if !g.directed && src != tgt {
		g.Invoke(tgt, core.Write, func(_ *runtime.Location, bc *bcontainer.Graph[VP, EP]) {
			bc.DeleteEdge(tgt, src)
		})
	}
}

// FindEdge returns the property of the first (src → tgt) edge.  Synchronous.
func (g *Graph[VP, EP]) FindEdge(src, tgt int64) (EP, bool) {
	out := g.InvokeRet(src, core.Read, func(_ *runtime.Location, bc *bcontainer.Graph[VP, EP]) any {
		e, ok := bc.FindEdge(src, tgt)
		return edgeResult[EP]{prop: e.Property, ok: ok}
	}).(edgeResult[EP])
	return out.prop, out.ok
}

type edgeResult[EP any] struct {
	prop EP
	ok   bool
}

// validDescriptor reports whether vd could possibly name a vertex of this
// graph: inside the static domain for the Static strategy, or carrying a
// legal home location for the dynamic strategies.  Descriptors that fail
// this test are treated as absent without any communication.
func (g *Graph[VP, EP]) validDescriptor(vd int64) bool {
	if vd < 0 {
		return false
	}
	if g.strategy == Static {
		return vd < g.staticN
	}
	return descriptorHome(vd) < g.Location().NumLocations()
}

// HasVertex reports whether the vertex exists anywhere in the graph.
// Synchronous.
func (g *Graph[VP, EP]) HasVertex(vd int64) bool {
	if !g.validDescriptor(vd) {
		return false
	}
	return g.InvokeRet(vd, core.Read, func(_ *runtime.Location, bc *bcontainer.Graph[VP, EP]) any {
		return bc.HasVertex(vd)
	}).(bool)
}

// VertexProperty returns the property of vertex vd.  Synchronous.
func (g *Graph[VP, EP]) VertexProperty(vd int64) (VP, bool) {
	if !g.validDescriptor(vd) {
		var zero VP
		return zero, false
	}
	out := g.ops.vertexProp.Sync(&g.Container, vd, struct{}{})
	return out.prop, out.ok
}

// vpResult is VertexProperty's result as one value: what a remote read's
// reply carries.
type vpResult[VP any] struct {
	prop VP
	ok   bool
}

// SetVertexProperty replaces the property of vertex vd.  Asynchronous.
func (g *Graph[VP, EP]) SetVertexProperty(vd int64, prop VP) {
	g.Invoke(vd, core.Write, func(_ *runtime.Location, bc *bcontainer.Graph[VP, EP]) {
		bc.SetProperty(vd, prop)
	})
}

// ApplyVertex applies fn to the property of vertex vd in place.
// Asynchronous; the update is atomic with respect to other vertex accesses.
func (g *Graph[VP, EP]) ApplyVertex(vd int64, fn func(VP) VP) {
	g.Invoke(vd, core.Write, func(_ *runtime.Location, bc *bcontainer.Graph[VP, EP]) {
		bc.ApplyVertex(vd, fn)
	})
}

// OutEdges returns a copy of the out-adjacency of vertex vd.  Synchronous.
func (g *Graph[VP, EP]) OutEdges(vd int64) []Edge[EP] {
	return g.InvokeRet(vd, core.Read, func(_ *runtime.Location, bc *bcontainer.Graph[VP, EP]) any {
		return bc.OutEdges(vd)
	}).([]Edge[EP])
}

// OutDegree returns the out-degree of vertex vd.  Synchronous.
func (g *Graph[VP, EP]) OutDegree(vd int64) int {
	return g.InvokeRet(vd, core.Read, func(_ *runtime.Location, bc *bcontainer.Graph[VP, EP]) any {
		return bc.OutDegree(vd)
	}).(int)
}

// OutDegreeSplit starts a split-phase out-degree query.
func (g *Graph[VP, EP]) OutDegreeSplit(vd int64) *runtime.FutureOf[int] {
	f := g.InvokeSplit(vd, core.Read, func(_ *runtime.Location, bc *bcontainer.Graph[VP, EP]) any {
		return bc.OutDegree(vd)
	})
	return runtime.NewFutureOf[int](f)
}

// Visit routes fn to the location owning vertex vd and runs it there with
// access to that location's Graph representative and the vertex record.  It
// is the asynchronous traversal primitive used by the pGraph algorithms
// (BFS, connected components, page rank): fn may inspect the adjacency and
// issue further Visit calls (including to local vertices), implementing
// computation migration instead of data fetching.
//
// fn runs outside the container's data bracket so that it can recurse into
// the same base container without self-deadlock; algorithms must therefore
// not mutate the graph structure from inside fn and must synchronise any
// algorithm-private state they update (the graphalgo engines keep that state
// behind their own locks).  Visits to descriptors with no vertex are
// silently dropped.
func (g *Graph[VP, EP]) Visit(vd int64, fn func(og *Graph[VP, EP], v *Vertex[VP, EP])) {
	g.visitHop(vd, fn, 0)
}

func (g *Graph[VP, EP]) visitHop(vd int64, fn func(og *Graph[VP, EP], v *Vertex[VP, EP]), hops int) {
	if hops > 64 {
		panic("pgraph: Visit forwarded too many times; partition cannot resolve the descriptor")
	}
	if !g.validDescriptor(vd) {
		return
	}
	if g.IsLocal(vd) {
		res := g.withLocal(core.Read, func(bc *bcontainer.Graph[VP, EP]) any {
			vert, found := bc.Vertex(vd)
			return vertexResult[VP, EP]{v: vert, ok: found}
		}).(vertexResult[VP, EP])
		if !res.ok {
			return
		}
		fn(g, res.v)
		return
	}
	dest := g.Lookup(vd)
	g.atGraph(dest, func(og *Graph[VP, EP]) { og.visitHop(vd, fn, hops+1) })
}

type vertexResult[VP any, EP any] struct {
	v  *Vertex[VP, EP]
	ok bool
}

// CompactAdjacency repacks every locally stored vertex's adjacency into one
// contiguous CSR edge array (bcontainer.FreezeCSR): per-vertex allocations
// and their capacity slack collapse into a single block while traversal
// order and the mutation API are unchanged — the storage-representation
// switch a static graph makes once construction is done.  Collective; call
// after edge traffic has fenced.  A later edge mutation un-freezes only the
// touched vertex, so correctness never depends on staying compact.
func (g *Graph[VP, EP]) CompactAdjacency() {
	g.ForEachLocalBC(core.Write, func(bc *bcontainer.Graph[VP, EP]) { bc.FreezeCSR() })
	g.Location().Barrier()
}

// LocalAdjacencyCompact reports whether this location's adjacency is
// currently packed in CSR form.
func (g *Graph[VP, EP]) LocalAdjacencyCompact() bool {
	frozen := true
	g.ForEachLocalBC(core.Read, func(bc *bcontainer.Graph[VP, EP]) {
		if !bc.CSRFrozen() {
			frozen = false
		}
	})
	return frozen
}

// NumVertices returns the global number of vertices.  Collective.
func (g *Graph[VP, EP]) NumVertices() int64 { return g.GlobalSize() }

// LocalNumEdges returns the number of adjacency records stored locally.
func (g *Graph[VP, EP]) LocalNumEdges() int64 {
	return g.withLocal(core.Read, func(bc *bcontainer.Graph[VP, EP]) any { return bc.NumEdges() }).(int64)
}

// NumEdges returns the global number of adjacency records (each undirected
// edge counts twice, as it is stored with both endpoints).  Collective.
func (g *Graph[VP, EP]) NumEdges() int64 {
	return runtime.AllReduceSum(g.Location(), g.LocalNumEdges())
}

// LocalVertices returns the descriptors of the vertices stored on this
// location, in insertion order.
func (g *Graph[VP, EP]) LocalVertices() []int64 {
	return g.withLocal(core.Read, func(bc *bcontainer.Graph[VP, EP]) any { return bc.VertexDescriptors() }).([]int64)
}

// RangeLocalVertices applies fn to every locally stored vertex record.
func (g *Graph[VP, EP]) RangeLocalVertices(fn func(v *Vertex[VP, EP]) bool) {
	g.withLocal(core.Read, func(bc *bcontainer.Graph[VP, EP]) any {
		bc.RangeVertices(fn)
		return nil
	})
}

// UpdateLocalVertices applies fn to every locally stored vertex property in
// place, under the write bracket.
func (g *Graph[VP, EP]) UpdateLocalVertices(fn func(vd int64, prop VP) VP) {
	g.withLocal(core.Write, func(bc *bcontainer.Graph[VP, EP]) any {
		bc.RangeVertices(func(v *Vertex[VP, EP]) bool {
			v.Property = fn(v.Descriptor, v.Property)
			return true
		})
		return nil
	})
}

// MemorySize returns the container-wide footprint.  Collective.
func (g *Graph[VP, EP]) MemorySize() core.MemoryUsage {
	var dirBytes int64
	if g.dir != nil {
		dirBytes = g.dir.MemoryBytes()
	}
	return g.GlobalMemory(dirBytes + 64)
}
