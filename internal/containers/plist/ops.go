package plist

import (
	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/transport"
)

// Wire codec for pList GIDs.  Registering it typed makes the shared
// distributed directory's maintenance traffic (Publish / PublishBulk during
// push_anywhere and element migration) self-decoding, so directory-backed
// lists work across process boundaries.
var gidCodec = transport.RegisterTyped(transport.Register(transport.Codec[GID]{
	Name: "plist.gid",
	Encode: func(b *transport.Buffer, g GID) {
		b.PutVarint(int64(g.Loc))
		b.PutVarint(g.ID)
	},
	Decode: func(b *transport.Buffer) GID {
		return GID{Loc: int32(b.Varint()), ID: b.Varint()}
	},
}, GID{}, GID{Loc: 2, ID: 2<<gidShift | 7}, InvalidGID))

// elemOps are the two registered element operations of the segment at element
// type T (see parray/ops.go: same scheme, same by-value rule).  The GID's
// location part only routes; the segment is addressed by the node id.
type elemOps[T any] struct {
	set *core.ElemOp[GID, *bcontainer.List[T], T, struct{}]
	get *core.ElemOp[GID, *bcontainer.List[T], struct{}, T]
}

func elemOpsFor[T any]() *elemOps[T] {
	return core.OncePerType(func() *elemOps[T] {
		codec := transport.CodecOf[T]()
		name := "plist[" + codec.Name + "]"
		return &elemOps[T]{
			set: core.RegisterWrite(name+"/set", name+"/bulk-set", gidCodec, codec,
				func(bc *bcontainer.List[T], g GID, val T) { bc.Set(g.ID, val) }),
			get: core.RegisterRead(name+"/get", name+"/bulk-get", gidCodec, codec,
				func(bc *bcontainer.List[T], g GID) T { return bc.Get(g.ID) }),
		}
	})
}

// listMigOpsFor returns the migration operation for listElem[T]: one
// registration serves every pList at the same T.
func listMigOpsFor[T any]() *core.MigrationOps[listElem[T]] {
	return core.OncePerType(func() *core.MigrationOps[listElem[T]] {
		codec := transport.CodecOf[T]()
		return core.RegisterMigrationOps("plist.elem["+codec.Name+"]",
			transport.Derive("plist.list-elem["+codec.Name+"]",
				func(b *transport.Buffer, e listElem[T]) {
					b.PutVarint(e.id)
					codec.Encode(b, e.val)
				},
				func(b *transport.Buffer) listElem[T] {
					return listElem[T]{id: b.Varint(), val: codec.Decode(b)}
				},
				codec))
	})
}
