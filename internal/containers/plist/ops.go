package plist

import (
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
