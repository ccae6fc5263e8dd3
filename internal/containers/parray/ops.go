package parray

import (
	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/transport"
)

// The pArray's element methods (Set/Get/GetSplit/SetBulk/GetBulk) are
// registered operations: a request is an op ID plus a pooled (index, value)
// record, and when the element type has a wire codec (transport.RegisterTyped)
// it is executable in a process that shares only the program binary.
//
// One registration serves every pArray instantiated at the same element
// type; the operation name derives from the codec name (stable across
// processes and registration order).
func elemOpsFor[T any]() *core.ElemOps[int64, *bcontainer.Array[T], T] {
	return core.OncePerType(func() *core.ElemOps[int64, *bcontainer.Array[T], T] {
		codec := transport.CodecOf[T]()
		return core.RegisterElemOps[int64, *bcontainer.Array[T], T](
			"parray["+codec.Name+"]",
			transport.Int64Codec,
			codec,
			(*bcontainer.Array[T]).Set,
			(*bcontainer.Array[T]).Get,
		)
	})
}
