package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"sync"

	"repro/internal/domain"
)

// Buffer is the codec's byte stream: an append-only binary writer and a
// cursor-based reader over the same storage.  Encoders call the Put methods;
// decoders Reset the buffer over received bytes and call the matching Get
// methods.  Read errors (underflow, oversized blobs) are sticky: the first
// failure records Err and every later Get returns a zero value, so decoders
// can check once at the end instead of after every field.
//
// A writer that knows how much it is about to append reserves it with Grow
// and then pays no reallocation.  A reader copies exactly where it hands out a
// value (Blob, Str); the frame decoders of this package take the opaque parts
// of a frame as views of the received bytes.
type Buffer struct {
	buf []byte
	off int
	err error
}

// NewBuffer returns an empty encoding buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// NewReader returns a buffer positioned to decode data.  The buffer aliases
// data; the caller must not mutate it while decoding.
func NewReader(data []byte) *Buffer { return &Buffer{buf: data} }

// Reset re-arms the buffer to decode data from the start.  Reset(b.Bytes()[:0])
// empties an encoding buffer and keeps its storage.
func (b *Buffer) Reset(data []byte) { b.buf, b.off, b.err = data, 0, nil }

// Grow reserves room for n more encoded bytes, so the appends that follow do
// not reallocate.
func (b *Buffer) Grow(n int) { b.buf = slices.Grow(b.buf, n) }

// Bytes returns the encoded bytes written so far.
func (b *Buffer) Bytes() []byte { return b.buf }

// Len returns the number of encoded bytes.
func (b *Buffer) Len() int { return len(b.buf) }

// Remaining reports how many bytes are left to decode.
func (b *Buffer) Remaining() int { return len(b.buf) - b.off }

// Err returns the first decode error, or nil.
func (b *Buffer) Err() error { return b.err }

func (b *Buffer) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("transport: "+format, args...)
	}
}

// Fail records a sticky decode error, for codecs that validate structural
// invariants beyond raw underflow (counts, ordering, value ranges).  Like the
// internal errors, only the first failure is kept.
func (b *Buffer) Fail(format string, args ...any) { b.fail(format, args...) }

// take returns the next n raw bytes, or nil after recording an underflow.
func (b *Buffer) take(n int) []byte {
	if b.err != nil {
		return nil
	}
	if n < 0 || b.off+n > len(b.buf) {
		b.fail("decode underflow: need %d bytes, have %d", n, len(b.buf)-b.off)
		return nil
	}
	out := b.buf[b.off : b.off+n]
	b.off += n
	return out
}

// PutU8 appends one byte.
func (b *Buffer) PutU8(v uint8) { b.buf = append(b.buf, v) }

// U8 decodes one byte.
func (b *Buffer) U8() uint8 {
	p := b.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// PutU32 appends a fixed-width big-endian uint32.
func (b *Buffer) PutU32(v uint32) { b.buf = binary.BigEndian.AppendUint32(b.buf, v) }

// U32 decodes a fixed-width big-endian uint32.
func (b *Buffer) U32() uint32 {
	p := b.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

// PutU64 appends a fixed-width big-endian uint64.
func (b *Buffer) PutU64(v uint64) { b.buf = binary.BigEndian.AppendUint64(b.buf, v) }

// U64 decodes a fixed-width big-endian uint64.
func (b *Buffer) U64() uint64 {
	p := b.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

// PutUvarint appends a variable-width unsigned integer.
func (b *Buffer) PutUvarint(v uint64) { b.buf = binary.AppendUvarint(b.buf, v) }

// uvarintLen is the encoded size of v as a uvarint, for writers that size a
// frame before building it.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen is the encoded size of v as a (zig-zag) varint.
func varintLen(v int64) int { return uvarintLen(zigzag(v)) }

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Uvarint decodes a variable-width unsigned integer.  Running out of bytes
// mid-value and a value that does not fit 64 bits (an eleventh byte, or high
// bits in the tenth) are told apart: the first is a short frame, the second
// can only be corruption.
func (b *Buffer) Uvarint() uint64 {
	if b.err != nil {
		return 0
	}
	v, n := binary.Uvarint(b.buf[b.off:])
	if n <= 0 {
		if n == 0 {
			b.fail("decode underflow: truncated varint")
		} else {
			b.fail("decode overflow: varint exceeds 64 bits")
		}
		return 0
	}
	b.off += n
	return v
}

// PutVarint appends a variable-width signed integer (zig-zag).
func (b *Buffer) PutVarint(v int64) { b.buf = binary.AppendUvarint(b.buf, zigzag(v)) }

// Varint decodes a variable-width signed integer.
func (b *Buffer) Varint() int64 { return unzigzag(b.Uvarint()) }

// The column forms below encode a run of values with one reservation and one
// loop, and decode len(dst) values straight into dst.  A decode fails exactly
// like that many scalar calls would; dst keeps what it held from the failing
// element on.

func putUvarints[T ~uint64](b *Buffer, vs []T) {
	b.Grow(len(vs) * binary.MaxVarintLen64)
	buf, n := b.buf[:cap(b.buf)], len(b.buf)
	for _, v := range vs {
		n += binary.PutUvarint(buf[n:], uint64(v))
	}
	b.buf = buf[:n]
}

func putVarints[T ~int | ~int64](b *Buffer, vs []T) {
	b.Grow(len(vs) * binary.MaxVarintLen64)
	buf, n := b.buf[:cap(b.buf)], len(b.buf)
	for _, v := range vs {
		n += binary.PutUvarint(buf[n:], zigzag(int64(v)))
	}
	b.buf = buf[:n]
}

func uvarints[T ~uint64](b *Buffer, dst []T) {
	if b.err != nil {
		return
	}
	buf, off := b.buf, b.off
	for i := range dst {
		v, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			b.off = off
			b.Uvarint() // reads the same bytes again and records which failure it is
			return
		}
		off += n
		dst[i] = T(v)
	}
	b.off = off
}

func varints[T ~int | ~int64](b *Buffer, dst []T) {
	if b.err != nil {
		return
	}
	buf, off := b.buf, b.off
	for i := range dst {
		v, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			b.off = off
			b.Uvarint()
			return
		}
		off += n
		dst[i] = T(unzigzag(v))
	}
	b.off = off
}

func putF64s(b *Buffer, vs []float64) {
	b.Grow(8 * len(vs))
	n := len(b.buf)
	b.buf = b.buf[:n+8*len(vs)]
	for i, v := range vs {
		binary.BigEndian.PutUint64(b.buf[n+8*i:], math.Float64bits(v))
	}
}

func f64s(b *Buffer, dst []float64) {
	if p := b.take(8 * len(dst)); p != nil {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.BigEndian.Uint64(p[8*i:]))
		}
	}
}

// PutF64 appends a float64 as its IEEE-754 bits.
func (b *Buffer) PutF64(v float64) { b.PutU64(math.Float64bits(v)) }

// F64 decodes a float64.
func (b *Buffer) F64() float64 { return math.Float64frombits(b.U64()) }

// PutBool appends a boolean as one byte.
func (b *Buffer) PutBool(v bool) {
	if v {
		b.PutU8(1)
	} else {
		b.PutU8(0)
	}
}

// Bool decodes a boolean.
func (b *Buffer) Bool() bool { return b.U8() != 0 }

// PutBlob appends a length-prefixed byte slice.
func (b *Buffer) PutBlob(v []byte) {
	b.PutUvarint(uint64(len(v)))
	b.buf = append(b.buf, v...)
}

// view decodes a length-prefixed byte slice WITHOUT copying it: the result
// aliases the bytes being decoded (its capacity is clipped, so appending to it
// reallocates instead of running into what follows).  That is only sound over
// bytes nobody will write again — a received frame (see Wire) — and it is what
// frame decoders return for the opaque parts of a frame.  Decoders of values
// (Blob, Str, and every Codec built on them) copy.
func (b *Buffer) view() []byte {
	n := b.Uvarint()
	if n > uint64(b.Remaining()) {
		b.fail("decode underflow: blob of %d bytes, have %d", n, b.Remaining())
		return nil
	}
	if n == 0 {
		return nil
	}
	p := b.take(int(n))
	return p[:len(p):len(p)]
}

// Blob decodes a length-prefixed byte slice.  The result is a copy: a decoded
// value never aliases the frame it arrived in.
func (b *Buffer) Blob() []byte { return append([]byte(nil), b.view()...) }

// PutString appends a length-prefixed string.
func (b *Buffer) PutString(v string) {
	b.PutUvarint(uint64(len(v)))
	b.buf = append(b.buf, v...)
}

// Str decodes a length-prefixed string.  (Deliberately not named String: a
// String() string method would make Buffer an fmt.Stringer whose formatting
// mutates the decode cursor.)
func (b *Buffer) Str() string { return string(b.view()) }

// Codec is a generics-instantiated encoder/decoder pair for one value type.
// Container element types register a Codec once (Register); the instantiated
// Encode/Decode functions are then called directly on the hot path — no
// reflection, no interface dispatch on the value.
type Codec[T any] struct {
	// Name identifies the codec on the wire and in the registry.
	Name string
	// Encode appends the wire form of v to the buffer.
	Encode func(b *Buffer, v T)
	// Decode reads one value off the buffer.
	Decode func(b *Buffer) T
	// encodeAll and decodeAll are the column form of the built-in numeric
	// codecs: a whole run in one tight loop (see EncodeSlice).
	encodeAll func(b *Buffer, vs []T)
	decodeAll func(b *Buffer, dst []T)
}

// EncodeSlice appends the wire forms of vs back to back, with no count: what
// len(vs) Encode calls append, but the built-in integer and float codecs do it
// in one loop with one reservation.  Records with several per-element fields
// marshal each as such a column.
func (c Codec[T]) EncodeSlice(b *Buffer, vs []T) {
	if c.encodeAll != nil {
		c.encodeAll(b, vs)
		return
	}
	for i := range vs {
		c.Encode(b, vs[i])
	}
}

// DecodeSlice decodes len(dst) values into dst, the inverse of EncodeSlice.
// The caller sizes dst from a count it has checked against Remaining, so a
// corrupt count is a decode error and not an allocation.
func (c Codec[T]) DecodeSlice(b *Buffer, dst []T) {
	if c.decodeAll != nil {
		c.decodeAll(b, dst)
		return
	}
	for i := range dst {
		dst[i] = c.Decode(b)
	}
}

// RoundTrip encodes v, decodes it, re-encodes the decoded value and reports
// both encodings.  Byte-equal encodings are the codec property the wire
// depends on (a retransmitted frame must be bit-identical to the original).
func (c Codec[T]) RoundTrip(v T) (first, second []byte, err error) {
	enc := NewBuffer()
	c.Encode(enc, v)
	first = append([]byte(nil), enc.Bytes()...)
	dec := NewReader(first)
	got := c.Decode(dec)
	if dec.Err() != nil {
		return first, nil, fmt.Errorf("codec %s: decode failed: %w", c.Name, dec.Err())
	}
	if dec.Remaining() != 0 {
		return first, nil, fmt.Errorf("codec %s: %d trailing bytes after decode", c.Name, dec.Remaining())
	}
	re := NewBuffer()
	c.Encode(re, got)
	second = append([]byte(nil), re.Bytes()...)
	return first, second, nil
}

// Built-in codecs for the element types the containers instantiate in tests,
// benches and examples.
var (
	// Int64Codec encodes int64 elements (pArray/pVector/pMatrix benches).
	Int64Codec = Codec[int64]{
		Name:      "int64",
		Encode:    func(b *Buffer, v int64) { b.PutVarint(v) },
		Decode:    func(b *Buffer) int64 { return b.Varint() },
		encodeAll: putVarints[int64], decodeAll: varints[int64],
	}
	// IntCodec encodes int elements.
	IntCodec = Codec[int]{
		Name:      "int",
		Encode:    func(b *Buffer, v int) { b.PutVarint(int64(v)) },
		Decode:    func(b *Buffer) int { return int(b.Varint()) },
		encodeAll: putVarints[int], decodeAll: varints[int],
	}
	// Uint64Codec encodes uint64 elements (graph vertex descriptors).
	Uint64Codec = Codec[uint64]{
		Name:      "uint64",
		Encode:    func(b *Buffer, v uint64) { b.PutUvarint(v) },
		Decode:    func(b *Buffer) uint64 { return b.Uvarint() },
		encodeAll: putUvarints[uint64], decodeAll: uvarints[uint64],
	}
	// Float64Codec encodes float64 elements (pagerank, jacobi).
	Float64Codec = Codec[float64]{
		Name:      "float64",
		Encode:    func(b *Buffer, v float64) { b.PutF64(v) },
		Decode:    func(b *Buffer) float64 { return b.F64() },
		encodeAll: putF64s, decodeAll: f64s,
	}
	// BoolCodec encodes booleans.
	BoolCodec = Codec[bool]{
		Name:   "bool",
		Encode: func(b *Buffer, v bool) { b.PutBool(v) },
		Decode: func(b *Buffer) bool { return b.Bool() },
	}
	// StringCodec encodes string elements (wordcount keys).
	StringCodec = Codec[string]{
		Name:   "string",
		Encode: func(b *Buffer, v string) { b.PutString(v) },
		Decode: func(b *Buffer) string { return b.Str() },
	}
	// BytesCodec encodes opaque byte-slice elements.
	BytesCodec = Codec[[]byte]{
		Name:   "bytes",
		Encode: func(b *Buffer, v []byte) { b.PutBlob(v) },
		Decode: func(b *Buffer) []byte { return b.Blob() },
	}
	// Index2DCodec encodes 2-D GIDs (pMatrix bulk batches).
	Index2DCodec = Codec[domain.Index2D]{
		Name: "index2d",
		Encode: func(b *Buffer, v domain.Index2D) {
			b.PutVarint(v.Row)
			b.PutVarint(v.Col)
		},
		Decode: func(b *Buffer) domain.Index2D {
			return domain.Index2D{Row: b.Varint(), Col: b.Varint()}
		},
	}
)

// SliceCodec derives a codec for []T from a codec for T.
func SliceCodec[T any](elem Codec[T]) Codec[[]T] {
	return Codec[[]T]{
		Name: elem.Name + "-slice",
		Encode: func(b *Buffer, v []T) {
			b.PutUvarint(uint64(len(v)))
			elem.EncodeSlice(b, v)
		},
		Decode: func(b *Buffer) []T {
			n := b.Uvarint()
			if n > uint64(b.Remaining()) {
				// Every element needs at least one byte; a bigger count is a
				// corrupt frame, not a huge allocation.
				b.fail("decode underflow: slice of %d elements, %d bytes left", n, b.Remaining())
				return nil
			}
			out := make([]T, n)
			elem.DecodeSlice(b, out)
			return out
		},
	}
}

// PairCodec derives a codec for a two-field struct from its field codecs.
func PairCodec[A, B any](first Codec[A], second Codec[B]) Codec[Pair[A, B]] {
	return Codec[Pair[A, B]]{
		Name: "pair[" + first.Name + "," + second.Name + "]",
		Encode: func(b *Buffer, v Pair[A, B]) {
			first.Encode(b, v.First)
			second.Encode(b, v.Second)
		},
		Decode: func(b *Buffer) Pair[A, B] {
			return Pair[A, B]{First: first.Decode(b), Second: second.Decode(b)}
		},
	}
}

// Pair is the generic two-field payload PairCodec encodes (index+value
// records of bulk element batches).
type Pair[A, B any] struct {
	First  A
	Second B
}

// registryEntry wraps one registered codec with type-erased self-check
// closures.  The closures are instantiated at registration time, so
// enumerating and exercising the registry needs no reflection.
type registryEntry struct {
	name string
	// roundTrips round-trips every registered sample value and returns the
	// first error (nil when all encodings are byte-identical).
	roundTrips func() error
	// encodedSizes returns the encoded size of every sample.
	encodedSizes func() []int
}

var (
	registryMu sync.RWMutex
	registry   = map[string]registryEntry{}
)

// Register records a codec under its name together with sample values used
// by the registry's self check.  It panics on a duplicate name (two element
// types must not share a wire name).  It returns the codec so registrations
// can initialise package-level variables.
func Register[T any](c Codec[T], samples ...T) Codec[T] {
	if c.Name == "" {
		panic("transport: codec with empty name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[c.Name]; dup {
		panic(fmt.Sprintf("transport: codec %q registered twice", c.Name))
	}
	registry[c.Name] = registryEntry{
		name: c.Name,
		roundTrips: func() error {
			for _, s := range samples {
				first, second, err := c.RoundTrip(s)
				if err != nil {
					return err
				}
				if string(first) != string(second) {
					return fmt.Errorf("codec %s: re-encoding differs (%x vs %x)", c.Name, first, second)
				}
			}
			return nil
		},
		encodedSizes: func() []int {
			sizes := make([]int, 0, len(samples))
			for _, s := range samples {
				b := NewBuffer()
				c.Encode(b, s)
				sizes = append(sizes, b.Len())
			}
			return sizes
		},
	}
	return c
}

// RegisteredCodecs returns the names of all registered codecs, sorted.
func RegisteredCodecs() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SelfCheck round-trips the registered sample values of the named codec and
// returns the first failure (or an error for an unknown name).
func SelfCheck(name string) error {
	registryMu.RLock()
	e, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return fmt.Errorf("transport: no codec registered under %q", name)
	}
	return e.roundTrips()
}

// EncodedSampleSizes returns the encoded size of every registered sample of
// the named codec (used by tests asserting zero-length and max-size cases).
func EncodedSampleSizes(name string) ([]int, error) {
	registryMu.RLock()
	e, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: no codec registered under %q", name)
	}
	return e.encodedSizes(), nil
}

// The typed registry maps Go element types to their codecs, so generic
// framework code (the operation registry's per-element-type ports) can ask
// "does T have a wire codec?" at instantiation time.  The name registry
// above keys on wire names and serves the self check; this one keys on
// reflect.Type and serves codec *lookup*.  Reflection happens once per
// container construction, never per element.
var (
	typedMu  sync.RWMutex
	typedReg = map[reflect.Type]any{} // Codec[T] boxed per element type T
)

// RegisterTyped records c as THE codec for element type T, enabling the
// self-decoding operation paths for containers instantiated at T.  It panics
// if T already has a typed codec (two codecs for one type would make the
// wire form ambiguous).  Returns c for variable initialisation.
func RegisterTyped[T any](c Codec[T]) Codec[T] {
	t := reflect.TypeOf((*T)(nil)).Elem()
	typedMu.Lock()
	defer typedMu.Unlock()
	if _, dup := typedReg[t]; dup {
		panic(fmt.Sprintf("transport: type %v already has a typed codec", t))
	}
	typedReg[t] = c
	return c
}

// TypedCodecFor returns the codec registered for element type T, or
// ok == false when T has none.
func TypedCodecFor[T any]() (Codec[T], bool) {
	t := reflect.TypeOf((*T)(nil)).Elem()
	typedMu.RLock()
	defer typedMu.RUnlock()
	if v, ok := typedReg[t]; ok {
		return v.(Codec[T]), true
	}
	return Codec[T]{}, false
}

// ByValue reports whether c can marshal its type.  A Codec without an Encode
// function is a by-reference codec: it names a type whose values only ever
// cross locations as shared pointers (see CodecOf).
func (c Codec[T]) ByValue() bool { return c.Encode != nil }

// CodecOf returns T's typed codec, or — when T has none — a by-reference
// codec named after the Go type.  Generic framework code registers its
// operations with whatever CodecOf and Derive hand it and never asks which
// kind it got; only the runtime's wire adapter does.
//
// Operation names are built from codec names and must be unique, but two
// distinct types can print alike (function-local types, same-named types of
// two packages called alike).  A by-reference name never leaves the process,
// so it carries the type descriptor's address to tell them apart.
func CodecOf[T any]() Codec[T] {
	if c, ok := TypedCodecFor[T](); ok {
		return c
	}
	t := reflect.TypeOf((*T)(nil)).Elem()
	return Codec[T]{Name: fmt.Sprintf("ref:%v@%p", t, t)}
}

// Derive builds the codec of a record whose fields are marshalled by parts
// (encode and decode call the parts' functions).  The record crosses by
// value iff every part does; otherwise the result is a by-reference codec
// and encode/decode are never called.
func Derive[T any](name string, encode func(b *Buffer, v T), decode func(b *Buffer) T, parts ...interface{ ByValue() bool }) Codec[T] {
	for _, p := range parts {
		if !p.ByValue() {
			return Codec[T]{Name: name}
		}
	}
	return Codec[T]{Name: name, Encode: encode, Decode: decode}
}

// maxSample is a large payload exercising multi-byte varint length prefixes.
var maxSample = func() []byte {
	b := make([]byte, 1<<16)
	for i := range b {
		b[i] = byte(i * 131)
	}
	return b
}()

func init() {
	// The element types instantiated by the containers' tests, benches and
	// examples.  Samples cover zero values, extremes, and the cases the
	// satellite tests pin (zero-length and max-size payloads).
	Register(Int64Codec, 0, 1, -1, math.MaxInt64, math.MinInt64, 4242)
	Register(IntCodec, 0, -7, 1<<30)
	Register(Uint64Codec, 0, 1, math.MaxUint64)
	Register(Float64Codec, 0, -1.5, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64)
	Register(BoolCodec, false, true)
	Register(StringCodec, "", "a", "hello, pcf", string(maxSample))
	Register(BytesCodec, nil, []byte{}, []byte{0}, maxSample)
	Register(Index2DCodec, domain.Index2D{}, domain.Index2D{Row: -3, Col: 1 << 40})
	Register(SliceCodec(Int64Codec), nil, []int64{}, []int64{1, -2, 3})
	Register(SliceCodec(Float64Codec), nil, []float64{0, math.Inf(1), math.Inf(-1)})
	Register(PairCodec(Int64Codec, Float64Codec),
		Pair[int64, float64]{}, Pair[int64, float64]{First: -9, Second: 2.5})

	// The same built-ins, keyed by Go type for operation-registry lookup.
	RegisterTyped(Int64Codec)
	RegisterTyped(IntCodec)
	RegisterTyped(Uint64Codec)
	RegisterTyped(Float64Codec)
	RegisterTyped(BoolCodec)
	RegisterTyped(StringCodec)
	RegisterTyped(BytesCodec)
	RegisterTyped(Index2DCodec)
}
