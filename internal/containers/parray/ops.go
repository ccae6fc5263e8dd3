package parray

import (
	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/transport"
)

// The pArray's element methods (Set/Get/GetSplit/SetBulk/GetBulk) are the two
// registered element operations of its base container: a request is an op ID
// plus a pooled record, and when the element type has a wire codec
// (transport.RegisterTyped) it is executable in a process that shares only the
// program binary.
type elemOps[T any] struct {
	set *core.ElemOp[int64, *bcontainer.Array[T], T, struct{}]
	get *core.ElemOp[int64, *bcontainer.Array[T], struct{}, T]
}

// elemOpsFor returns the operations at element type T.  One registration
// serves every pArray instantiated at T; the operation names derive from the
// codec name (stable across processes and registration order).
func elemOpsFor[T any]() *elemOps[T] {
	return core.OncePerType(func() *elemOps[T] {
		codec := transport.CodecOf[T]()
		name := "parray[" + codec.Name + "]"
		return &elemOps[T]{
			set: core.RegisterWrite(name+"/set", name+"/bulk-set", transport.Int64Codec, codec, (*bcontainer.Array[T]).Set),
			get: core.RegisterRead(name+"/get", name+"/bulk-get", transport.Int64Codec, codec, (*bcontainer.Array[T]).Get),
		}
	})
}
