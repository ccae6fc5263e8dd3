package pgraph

import (
	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/transport"
)

// Registered operations of pGraph, mirroring pArray's scheme: add_edge
// traffic and vertex migration travel under operations whose codecs derive
// from the property types' (transport.CodecOf), so when both have wire codecs
// they are executable across process boundaries.
//
// Registrations are per (VP, EP) pair: the handlers address the concrete
// *bcontainer.Graph[VP, EP] base container, so a graph at the same
// edge-property type but a different vertex-property type needs its own
// entry.  Operation names derive from both codec names (stable across
// processes and registration order).

// edgeMsg is one shipped add_edge request: the target descriptor, the edge
// property, and the owning graph's multi-edge flag (a per-container option
// that must ride with the request, since the registered handler is shared by
// every graph at this type pair).
type edgeMsg[EP any] struct {
	tgt   int64
	prop  EP
	multi bool
}

// graphOps are the element operations of a pGraph at (VP, EP): add_edge, per
// element and in bulk, and the vertex-property read.
type graphOps[VP any, EP any] struct {
	addEdge    *core.ElemOp[int64, *bcontainer.Graph[VP, EP], edgeMsg[EP], struct{}]
	vertexProp *core.ElemOp[int64, *bcontainer.Graph[VP, EP], struct{}, vpResult[VP]]
}

func graphOpsFor[VP any, EP any]() *graphOps[VP, EP] {
	return core.OncePerType(func() *graphOps[VP, EP] {
		vpCodec, epCodec := transport.CodecOf[VP](), transport.CodecOf[EP]()
		types := "[" + vpCodec.Name + "," + epCodec.Name + "]"
		// Both property codecs are parts of both records although each encodes
		// only one: the handlers address a Graph[VP, EP], which lives in
		// another process only when both property types can.
		msgCodec := transport.Derive("pgraph.edge-msg["+epCodec.Name+"]",
			func(b *transport.Buffer, m edgeMsg[EP]) {
				b.PutVarint(m.tgt)
				epCodec.Encode(b, m.prop)
				b.PutBool(m.multi)
			},
			func(b *transport.Buffer) edgeMsg[EP] {
				return edgeMsg[EP]{tgt: b.Varint(), prop: epCodec.Decode(b), multi: b.Bool()}
			},
			vpCodec, epCodec)
		propCodec := transport.Derive("pgraph.vertex-prop"+types+"/found",
			func(b *transport.Buffer, r vpResult[VP]) {
				vpCodec.Encode(b, r.prop)
				b.PutBool(r.ok)
			},
			func(b *transport.Buffer) vpResult[VP] {
				return vpResult[VP]{prop: vpCodec.Decode(b), ok: b.Bool()}
			},
			vpCodec, epCodec)
		return &graphOps[VP, EP]{
			addEdge: core.RegisterWrite("pgraph.edge"+types+"/set", "pgraph.edge"+types+"/bulk-set", transport.Int64Codec, msgCodec,
				func(bc *bcontainer.Graph[VP, EP], src int64, m edgeMsg[EP]) {
					bc.AddEdge(src, m.tgt, m.prop, m.multi)
				}),
			vertexProp: core.RegisterRead("pgraph.vertex-prop"+types+"/get", "", transport.Int64Codec, propCodec,
				func(bc *bcontainer.Graph[VP, EP], vd int64) vpResult[VP] {
					if !bc.HasVertex(vd) {
						return vpResult[VP]{}
					}
					return vpResult[VP]{prop: bc.Property(vd), ok: true}
				}),
		}
	})
}

// vertexMigOpsFor returns the migration operation for vertexRec[VP, EP].
func vertexMigOpsFor[VP any, EP any]() *core.MigrationOps[vertexRec[VP, EP]] {
	return core.OncePerType(func() *core.MigrationOps[vertexRec[VP, EP]] {
		vpCodec, epCodec := transport.CodecOf[VP](), transport.CodecOf[EP]()
		return core.RegisterMigrationOps("pgraph.vertex["+vpCodec.Name+","+epCodec.Name+"]",
			transport.Derive("pgraph.vertex-rec["+vpCodec.Name+","+epCodec.Name+"]",
				func(b *transport.Buffer, r vertexRec[VP, EP]) {
					b.PutVarint(r.vd)
					vpCodec.Encode(b, r.prop)
					b.PutUvarint(uint64(len(r.edges)))
					for _, e := range r.edges {
						b.PutVarint(e.Source)
						b.PutVarint(e.Target)
						epCodec.Encode(b, e.Property)
					}
				},
				func(b *transport.Buffer) vertexRec[VP, EP] {
					r := vertexRec[VP, EP]{vd: b.Varint(), prop: vpCodec.Decode(b)}
					n := b.Uvarint()
					if n > uint64(b.Remaining()) {
						b.Fail("vertex record: %d edges, %d bytes left", n, b.Remaining())
						return vertexRec[VP, EP]{}
					}
					r.edges = make([]bcontainer.Edge[EP], n)
					for i := range r.edges {
						r.edges[i] = bcontainer.Edge[EP]{
							Source:   b.Varint(),
							Target:   b.Varint(),
							Property: epCodec.Decode(b),
						}
					}
					return r
				},
				vpCodec, epCodec))
	})
}
