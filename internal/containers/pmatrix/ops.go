package pmatrix

import (
	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/transport"
)

// Migration operations for the two pMatrix storage representations: one
// registration serves every matrix at the same T, and the records cross
// wires by value iff T has a typed wire codec.

// matMigOpsFor returns the migration operation for the dense element record
// matrixElem[T].
func matMigOpsFor[T any]() *core.MigrationOps[matrixElem[T]] {
	return core.OncePerType(func() *core.MigrationOps[matrixElem[T]] {
		codec := transport.CodecOf[T]()
		return core.RegisterMigrationOps("pmatrix.elem["+codec.Name+"]",
			transport.Derive("pmatrix.matrix-elem["+codec.Name+"]",
				func(b *transport.Buffer, e matrixElem[T]) {
					b.PutVarint(e.g.Row)
					b.PutVarint(e.g.Col)
					codec.Encode(b, e.val)
				},
				func(b *transport.Buffer) matrixElem[T] {
					var e matrixElem[T]
					e.g.Row = b.Varint()
					e.g.Col = b.Varint()
					e.val = codec.Decode(b)
					return e
				},
				codec))
	})
}

// sparseRowMigOpsFor returns the migration operation for the CSR row record
// SparseRow[T].  The wire form is the compressed row itself
// (bcontainer.SparseRowCodec), so relayout traffic of a sparse matrix scales
// with the nonzeros shipped.
func sparseRowMigOpsFor[T any]() *core.MigrationOps[bcontainer.SparseRow[T]] {
	return core.OncePerType(func() *core.MigrationOps[bcontainer.SparseRow[T]] {
		codec := transport.CodecOf[T]()
		return core.RegisterMigrationOps("pmatrix.sparse-row["+codec.Name+"]", bcontainer.SparseRowCodec(codec))
	})
}
