package pmatrix

import (
	"repro/internal/bcontainer"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/transport"
)

// Element and migration operations for the two pMatrix storage
// representations: one registration serves every matrix at the same T, and
// the records cross wires by value iff T has a typed wire codec.

// elemOps are the two registered element operations of a block type B at
// element type T.
type elemOps[T any, B core.BContainer] struct {
	set *core.ElemOp[domain.Index2D, B, T, struct{}]
	get *core.ElemOp[domain.Index2D, B, struct{}, T]
}

func registerElemOps[T any, B core.BContainer](family string, set func(B, domain.Index2D, T), get func(B, domain.Index2D) T) *elemOps[T, B] {
	codec := transport.CodecOf[T]()
	name := family + "[" + codec.Name + "]"
	return &elemOps[T, B]{
		set: core.RegisterWrite(name+"/set", name+"/bulk-set", transport.Index2DCodec, codec, set),
		get: core.RegisterRead(name+"/get", name+"/bulk-get", transport.Index2DCodec, codec, get),
	}
}

func denseOpsFor[T any]() *elemOps[T, *bcontainer.MatrixBlock[T]] {
	return core.OncePerType(func() *elemOps[T, *bcontainer.MatrixBlock[T]] {
		return registerElemOps("pmatrix", (*bcontainer.MatrixBlock[T]).Set, (*bcontainer.MatrixBlock[T]).Get)
	})
}

func sparseOpsFor[T any]() *elemOps[T, *bcontainer.SparseMatrixBlock[T]] {
	return core.OncePerType(func() *elemOps[T, *bcontainer.SparseMatrixBlock[T]] {
		return registerElemOps("pmatrix.sparse", (*bcontainer.SparseMatrixBlock[T]).Set, (*bcontainer.SparseMatrixBlock[T]).Get)
	})
}

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
