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

// hashOps are the element operations of a pHashMap at (K, V): insert, and
// find answering (value, present) as one result.
type hashOps[K comparable, V any] struct {
	insert *core.ElemOp[K, *bcontainer.HashMap[K, V], V, struct{}]
	find   *core.ElemOp[K, *bcontainer.HashMap[K, V], struct{}, findResult[V]]
}

func hashOpsFor[K comparable, V any]() *hashOps[K, V] {
	return core.OncePerType(func() *hashOps[K, V] {
		kCodec, vCodec := transport.CodecOf[K](), transport.CodecOf[V]()
		name := "passoc.hashmap[" + kCodec.Name + "," + vCodec.Name + "]"
		return &hashOps[K, V]{
			insert: core.RegisterWrite(name+"/set", name+"/bulk-set", kCodec, vCodec,
				func(bc *bcontainer.HashMap[K, V], k K, v V) { bc.Insert(k, v) }),
			find: core.RegisterRead(name+"/get", name+"/bulk-get", kCodec,
				transport.Derive(name+"/found",
					func(b *transport.Buffer, r findResult[V]) {
						vCodec.Encode(b, r.val)
						b.PutBool(r.ok)
					},
					func(b *transport.Buffer) findResult[V] {
						return findResult[V]{val: vCodec.Decode(b), ok: b.Bool()}
					},
					vCodec),
				func(bc *bcontainer.HashMap[K, V], k K) findResult[V] {
					v, ok := bc.Find(k)
					return findResult[V]{val: v, ok: ok}
				}),
		}
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
