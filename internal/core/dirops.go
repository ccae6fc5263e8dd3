package core

import (
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// Registered-operation forms of the directory maintenance RMIs: Publish /
// PublishBulk / Unpublish / Update traffic travels under operations whose
// argument codecs derive from the GID type's (transport.CodecOf) — so when
// the GID type has a wire codec the directory works across process
// boundaries.  The DirectoryRMIs attribution stays with the callers.
//
// One registration serves every Directory instantiated at the same GID type:
// the operation names derive from the codec name (stable across processes and
// registration order).

// dirEntryArgs is one publish/unpublish/update request: a GID and its owner.
type dirEntryArgs[G comparable] struct {
	gid   G
	owner partition.BCID
}

// dirBulkArgs is one batched publish request: a group of GIDs homed on the
// destination, all owned by one sub-domain.
type dirBulkArgs[G comparable] struct {
	gids  []G
	owner partition.BCID
}

// dirOps is the registered operation set of one GID type.
type dirOps[G comparable] struct {
	publish     runtime.OpID
	publishBulk runtime.OpID
	unpublish   runtime.OpID
	update      runtime.OpID
	bump        runtime.OpID
}

// emptyArgsCodec marshals the argument-less broadcast requests (epoch bumps).
var emptyArgsCodec = transport.Codec[struct{}]{
	Name:   "core.directory/empty-args",
	Encode: func(*transport.Buffer, struct{}) {},
	Decode: func(*transport.Buffer) struct{} { return struct{}{} },
}

// dirOpsFor returns the registered directory operations for GID type G.
func dirOpsFor[G comparable]() *dirOps[G] { return OncePerType(registerDirOps[G]) }

func registerDirOps[G comparable]() *dirOps[G] {
	codec := transport.CodecOf[G]()
	name := "core.directory[" + codec.Name + "]"
	entryCodec := transport.Derive(name+"/entry-args",
		func(b *transport.Buffer, a dirEntryArgs[G]) {
			codec.Encode(b, a.gid)
			b.PutVarint(int64(a.owner))
		},
		func(b *transport.Buffer) dirEntryArgs[G] {
			return dirEntryArgs[G]{gid: codec.Decode(b), owner: partition.BCID(b.Varint())}
		},
		codec)
	bulkCodec := transport.Derive(name+"/bulk-args",
		func(b *transport.Buffer, a dirBulkArgs[G]) {
			b.PutUvarint(uint64(len(a.gids)))
			for _, gid := range a.gids {
				codec.Encode(b, gid)
			}
			b.PutVarint(int64(a.owner))
		},
		func(b *transport.Buffer) dirBulkArgs[G] {
			n := b.Uvarint()
			if n > uint64(b.Remaining()) {
				b.Fail("directory bulk publish: %d entries, %d bytes left", n, b.Remaining())
				return dirBulkArgs[G]{}
			}
			gids := make([]G, n)
			for i := range gids {
				gids[i] = codec.Decode(b)
			}
			return dirBulkArgs[G]{gids: gids, owner: partition.BCID(b.Varint())}
		},
		codec)
	o := &dirOps[G]{}
	o.publish = runtime.RegisterOp(name+"/publish", entryCodec,
		func(obj any, _ *runtime.Location, a dirEntryArgs[G]) {
			obj.(*Directory[G]).set(a.gid, a.owner)
		}, nil)
	o.publishBulk = runtime.RegisterOp(name+"/publish-bulk", bulkCodec,
		func(obj any, _ *runtime.Location, a dirBulkArgs[G]) {
			od := obj.(*Directory[G])
			od.mu.Lock()
			for _, gid := range a.gids {
				od.entries[gid] = a.owner
			}
			od.mu.Unlock()
		}, nil)
	o.unpublish = runtime.RegisterOp(name+"/unpublish", entryCodec,
		func(obj any, _ *runtime.Location, a dirEntryArgs[G]) {
			obj.(*Directory[G]).erase(a.gid)
		}, nil)
	o.update = runtime.RegisterOp(name+"/update", entryCodec,
		func(obj any, _ *runtime.Location, a dirEntryArgs[G]) {
			obj.(*Directory[G]).applyUpdate(a.gid, a.owner)
		}, nil)
	o.bump = runtime.RegisterOp(name+"/bump-epoch", emptyArgsCodec,
		func(obj any, _ *runtime.Location, _ struct{}) {
			obj.(*Directory[G]).BumpEpoch()
		}, nil)
	return o
}
