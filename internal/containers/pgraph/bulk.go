package pgraph

import (
	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/runtime"
)

// Bulk mutation methods: batch vertex and edge insertion.  Graph loading is
// the most RMI-intensive phase of every pGraph experiment (SSCA2 generation
// fires millions of add_edge_async calls); these methods group a whole slice
// of insertions by owning location and ship one sized RMI per destination
// instead of one request per vertex or edge.

// EdgeSpec describes one edge of a bulk insertion.
type EdgeSpec[EP any] struct {
	Src, Tgt int64
	Prop     EP
}

// VertexSpec describes one vertex of a bulk insertion: an explicit
// descriptor (carrying its home location for dynamic strategies) plus its
// property.
type VertexSpec[VP any] struct {
	VD   int64
	Prop VP
}

// AddEdgesBulk inserts every edge of the batch asynchronously.  Adjacency
// records are grouped by the location owning their source vertex (and, for
// undirected graphs, mirror records by target owner) and shipped as one
// sized RMI per destination.  Visible by the next Fence.  The batch slice is
// not retained past the call.
func (g *Graph[VP, EP]) AddEdgesBulk(edges []EdgeSpec[EP]) {
	if len(edges) == 0 {
		return
	}
	bytesPerOp := 16 + runtime.PayloadBytes(edges[0].Prop) // endpoints + property
	srcs := make([]int64, 0, len(edges))
	msgs := make([]edgeMsg[EP], 0, len(edges))
	for _, e := range edges {
		srcs = append(srcs, e.Src)
		msgs = append(msgs, edgeMsg[EP]{tgt: e.Tgt, prop: e.Prop, multi: g.multi})
	}
	g.ops.addEdge.BulkAsync(&g.Container, srcs, msgs, bytesPerOp)
	if g.directed {
		return
	}
	// Undirected: mirror records live with the target endpoint.
	srcs, msgs = srcs[:0], msgs[:0]
	for _, e := range edges {
		if e.Src != e.Tgt {
			srcs = append(srcs, e.Tgt)
			msgs = append(msgs, edgeMsg[EP]{tgt: e.Src, prop: e.Prop, multi: g.multi})
		}
	}
	g.ops.addEdge.BulkAsync(&g.Container, srcs, msgs, bytesPerOp)
}

// AddVerticesBulk is the bulk counterpart of AddVertexWithDescriptor: it
// creates every vertex of the batch on its natural home (the location
// encoded in its descriptor), asynchronously — one bulk RMI per home
// location, with directory entries published in per-directory-location
// batches for the DynamicDirectory strategy.  Dynamic strategies only; like
// AddVertexWithDescriptor, callers own the descriptor space they pass in
// (EncodeDescriptor builds descriptors from a home and a counter).  The
// batch slice is retained until the operations execute; do not mutate it
// before the next Fence.
func (g *Graph[VP, EP]) AddVerticesBulk(vs []VertexSpec[VP]) {
	g.requireDynamic("add_vertices_bulk")
	if len(vs) == 0 {
		return
	}
	loc := g.Location()
	bytesPerOp := 8 + runtime.PayloadBytes(vs[0].Prop) // descriptor + property
	// Group by home location (encoded in the descriptor).
	byHome := make(map[int][]int)
	for i, v := range vs {
		byHome[descriptorHome(v.VD)] = append(byHome[descriptorHome(v.VD)], i)
	}
	for home, group := range byHome {
		group := group
		loc.AsyncRMIBulk(home, g.graphHandle, len(group), bytesPerOp*len(group), func(obj any, _ *runtime.Location) {
			og := obj.(*Graph[VP, EP])
			og.withLocal(core.Write, func(bc *bcontainer.Graph[VP, EP]) any {
				for _, k := range group {
					bc.AddVertex(vs[k].VD, vs[k].Prop)
				}
				return nil
			})
			if og.strategy != DynamicDirectory {
				return
			}
			// Publish the new homes from the home location AFTER the
			// vertices exist (like the per-element path): a directory entry
			// must never lead a resolver to a home that has not created the
			// vertex yet.  PublishBulk keeps the traffic batched: one bulk
			// RMI per (home, directory location) pair.
			vds := make([]int64, len(group))
			for i, k := range group {
				vds[i] = vs[k].VD
			}
			og.dir.PublishBulk(vds, partition.BCID(og.Location().ID()))
		})
	}
}

// EncodeDescriptor returns the descriptor a dynamic-strategy vertex would
// receive as the counter-th vertex created on location home.  It lets
// loaders precompute descriptor batches for AddVerticesBulk.
func EncodeDescriptor(home int, counter int64) int64 { return encodeDescriptor(home, counter) }

// ApplyVertexBulk applies fn to the property of every vertex named by vds in
// place, asynchronously: one bulk RMI per owning location (the bulk
// counterpart of ApplyVertex, used by property-update sweeps).  The request
// carries the caller's fn, not copies: vds and whatever fn captures are
// retained until the operations execute; do not mutate them before the next
// Fence.
func (g *Graph[VP, EP]) ApplyVertexBulk(vds []int64, fn func(VP) VP) {
	g.InvokeBulk(vds, core.Write, 8, func(_ *runtime.Location, bc *bcontainer.Graph[VP, EP], k int) {
		bc.ApplyVertex(vds[k], fn)
	})
}
