package passoc

import (
	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/transport"
)

// Registered operations of the hashed family, mirroring pArray's scheme:
// inserts and redistribution pairs travel under operations whose codecs
// derive from the key and value types' (transport.CodecOf), so when both have
// wire codecs they are executable across process boundaries.
//
// One registration serves every pHashMap instantiated at the same (K, V):
// operation names derive from the codec names (stable across processes and
// registration order).

// hashElemOpsFor returns the element operations for a pHashMap at (K, V).
func hashElemOpsFor[K comparable, V any]() *core.ElemOps[K, *bcontainer.HashMap[K, V], V] {
	return core.OncePerType(func() *core.ElemOps[K, *bcontainer.HashMap[K, V], V] {
		kCodec, vCodec := transport.CodecOf[K](), transport.CodecOf[V]()
		return core.RegisterElemOps[K, *bcontainer.HashMap[K, V], V](
			"passoc.hashmap["+kCodec.Name+","+vCodec.Name+"]",
			kCodec,
			vCodec,
			func(bc *bcontainer.HashMap[K, V], k K, v V) { bc.Insert(k, v) },
			func(bc *bcontainer.HashMap[K, V], k K) V {
				v, _ := bc.Find(k)
				return v
			},
		)
	})
}

// kvMigOpsFor returns the migration operation for kvPair[K, V].
func kvMigOpsFor[K comparable, V any]() *core.MigrationOps[kvPair[K, V]] {
	return core.OncePerType(func() *core.MigrationOps[kvPair[K, V]] {
		kCodec, vCodec := transport.CodecOf[K](), transport.CodecOf[V]()
		return core.RegisterMigrationOps("passoc.kv["+kCodec.Name+","+vCodec.Name+"]",
			transport.Derive("passoc.kv-pair["+kCodec.Name+","+vCodec.Name+"]",
				func(b *transport.Buffer, p kvPair[K, V]) {
					kCodec.Encode(b, p.key)
					vCodec.Encode(b, p.val)
				},
				func(b *transport.Buffer) kvPair[K, V] {
					return kvPair[K, V]{key: kCodec.Decode(b), val: vCodec.Decode(b)}
				},
				kCodec, vCodec))
	})
}
