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

// edgeOpsFor returns the add_edge operations for a pGraph at (VP, EP).  Only
// the set half is used; the get half answers the source vertex's out-degree
// (a cheap, always-available read).
func edgeOpsFor[VP any, EP any]() *core.ElemOps[int64, *bcontainer.Graph[VP, EP], edgeMsg[EP]] {
	return core.OncePerType(func() *core.ElemOps[int64, *bcontainer.Graph[VP, EP], edgeMsg[EP]] {
		vpCodec, epCodec := transport.CodecOf[VP](), transport.CodecOf[EP]()
		msgCodec := transport.Derive("pgraph.edge-msg["+epCodec.Name+"]",
			func(b *transport.Buffer, m edgeMsg[EP]) {
				b.PutVarint(m.tgt)
				epCodec.Encode(b, m.prop)
				b.PutBool(m.multi)
			},
			func(b *transport.Buffer) edgeMsg[EP] {
				return edgeMsg[EP]{tgt: b.Varint(), prop: epCodec.Decode(b), multi: b.Bool()}
			},
			// vpCodec is a part although no vertex property is encoded: the
			// handler addresses a Graph[VP, EP], which lives in another
			// process only when both property types can.
			vpCodec, epCodec)
		return core.RegisterElemOps[int64, *bcontainer.Graph[VP, EP], edgeMsg[EP]](
			"pgraph.edge["+vpCodec.Name+","+epCodec.Name+"]",
			transport.Int64Codec,
			msgCodec,
			func(bc *bcontainer.Graph[VP, EP], src int64, m edgeMsg[EP]) {
				bc.AddEdge(src, m.tgt, m.prop, m.multi)
			},
			func(bc *bcontainer.Graph[VP, EP], src int64) edgeMsg[EP] {
				return edgeMsg[EP]{tgt: int64(bc.OutDegree(src))}
			},
		)
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
