package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/domain"
)

// TestBufferPrimitivesRoundTrip drives every primitive through one buffer
// and reads it back in order.
func TestBufferPrimitivesRoundTrip(t *testing.T) {
	b := NewBuffer()
	b.PutU8(0xAB)
	b.PutU32(0xDEADBEEF)
	b.PutU64(math.MaxUint64)
	b.PutUvarint(300)
	b.PutVarint(-300)
	b.PutF64(math.Pi)
	b.PutBool(true)
	b.PutBlob([]byte("payload"))
	b.PutString("key")

	r := NewReader(b.Bytes())
	if r.U8() != 0xAB || r.U32() != 0xDEADBEEF || r.U64() != math.MaxUint64 {
		t.Fatal("fixed-width round trip wrong")
	}
	if r.Uvarint() != 300 || r.Varint() != -300 {
		t.Fatal("varint round trip wrong")
	}
	if r.F64() != math.Pi || !r.Bool() {
		t.Fatal("f64/bool round trip wrong")
	}
	if string(r.Blob()) != "payload" || r.Str() != "key" {
		t.Fatal("blob/string round trip wrong")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d after clean decode", r.Err(), r.Remaining())
	}
}

// TestBufferStickyError pins the decode-error contract: the first underflow
// records Err, every later read returns a zero value, and no read panics.
func TestBufferStickyError(t *testing.T) {
	r := NewReader([]byte{0x01})
	if r.U8() != 1 {
		t.Fatal("first byte wrong")
	}
	if r.U64() != 0 || r.Err() == nil {
		t.Fatal("underflow must record an error and return zero")
	}
	first := r.Err()
	if r.Uvarint() != 0 || r.Varint() != 0 || r.Blob() != nil || r.Str() != "" {
		t.Fatal("reads after an error must return zero values")
	}
	if r.Err() != first {
		t.Fatal("later failures must not replace the first error")
	}
	if !strings.Contains(first.Error(), "underflow") {
		t.Fatalf("error %v should name the underflow", first)
	}
}

// TestBufferBlobCorruptLength pins the corrupt-count guard: a length prefix
// larger than the remaining bytes fails cleanly instead of allocating.
func TestBufferBlobCorruptLength(t *testing.T) {
	enc := NewBuffer()
	enc.PutUvarint(1 << 40)
	r := NewReader(enc.Bytes())
	if r.Blob() != nil || r.Err() == nil {
		t.Fatal("oversized blob length must fail, not allocate")
	}
}

// TestRegisteredCodecsSelfCheck exercises every registered codec's samples
// through the byte-exact round-trip property.
func TestRegisteredCodecsSelfCheck(t *testing.T) {
	names := RegisteredCodecs()
	if len(names) == 0 {
		t.Fatal("no codecs registered")
	}
	for _, name := range names {
		if err := SelfCheck(name); err != nil {
			t.Errorf("codec %s: %v", name, err)
		}
	}
	if err := SelfCheck("no-such-codec"); err == nil {
		t.Error("unknown codec name must fail the self check")
	}
}

// TestRegisteredSampleSizeCoverage asserts the registry's samples include
// the boundary payloads the wire must handle: zero-length and max-size
// (>= 64 KiB) values for the variable-length codecs.
func TestRegisteredSampleSizeCoverage(t *testing.T) {
	for _, name := range []string{"string", "bytes"} {
		sizes, err := EncodedSampleSizes(name)
		if err != nil {
			t.Fatal(err)
		}
		minSize, maxSize := sizes[0], sizes[0]
		for _, s := range sizes {
			minSize = min(minSize, s)
			maxSize = max(maxSize, s)
		}
		// A zero-length value still carries its one-byte length prefix.
		if minSize != 1 {
			t.Errorf("codec %s: smallest sample encodes to %d bytes, want 1 (zero-length value)", name, minSize)
		}
		if maxSize < 1<<16 {
			t.Errorf("codec %s: largest sample encodes to %d bytes, want >= 64KiB", name, maxSize)
		}
	}
}

// TestRegisterRejectsDuplicates pins the registration contract.
func TestRegisterRejectsDuplicates(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", name)
			}
		}()
		fn()
	}
	expectPanic("duplicate name", func() { Register(Int64Codec) })
	expectPanic("empty name", func() { Register(Codec[int64]{Name: ""}) })
}

// TestCodecPropertiesQuick checks value-identity and byte-exact re-encoding
// over randomly generated values for every scalar and composite codec.
func TestCodecPropertiesQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	check := func(name string, prop any) {
		if err := quick.Check(prop, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	byteExact := func(first, second []byte, err error) bool {
		return err == nil && bytes.Equal(first, second)
	}
	check("int64", func(v int64) bool {
		f, s, err := Int64Codec.RoundTrip(v)
		return byteExact(f, s, err)
	})
	check("uint64", func(v uint64) bool {
		f, s, err := Uint64Codec.RoundTrip(v)
		return byteExact(f, s, err)
	})
	check("float64", func(v float64) bool {
		// Byte-exact comparison covers NaN payloads, which fail ==.
		f, s, err := Float64Codec.RoundTrip(v)
		return byteExact(f, s, err)
	})
	check("string", func(v string) bool {
		f, s, err := StringCodec.RoundTrip(v)
		return byteExact(f, s, err)
	})
	check("bytes", func(v []byte) bool {
		f, s, err := BytesCodec.RoundTrip(v)
		return byteExact(f, s, err)
	})
	check("index2d", func(row, col int64) bool {
		f, s, err := Index2DCodec.RoundTrip(domain.Index2D{Row: row, Col: col})
		return byteExact(f, s, err)
	})
	check("int64-slice", func(v []int64) bool {
		f, s, err := SliceCodec(Int64Codec).RoundTrip(v)
		return byteExact(f, s, err)
	})
	check("pair", func(a int64, b float64) bool {
		f, s, err := PairCodec(Int64Codec, Float64Codec).RoundTrip(Pair[int64, float64]{First: a, Second: b})
		return byteExact(f, s, err)
	})
}

// TestSliceCodecCorruptCount pins the corrupt-count guard of derived slice
// codecs: a huge element count fails instead of allocating.
func TestSliceCodecCorruptCount(t *testing.T) {
	enc := NewBuffer()
	enc.PutUvarint(1 << 50)
	r := NewReader(enc.Bytes())
	if out := SliceCodec(Int64Codec).Decode(r); out != nil || r.Err() == nil {
		t.Fatal("corrupt slice count must fail, not allocate")
	}
}

// FuzzBufferDecode feeds arbitrary bytes through every decode primitive:
// nothing may panic, and errors must be sticky.
func FuzzBufferDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(EncodeAck(1, 2, 77))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		r.U8()
		r.Uvarint()
		r.Varint()
		r.Blob()
		r.U32()
		r.F64()
		r.Str()
		r.U64()
		r.Bool()
		if r.Err() == nil && r.Remaining() > len(data) {
			t.Fatal("remaining grew")
		}
	})
}

// FuzzInt64Codec fuzzes the signed varint codec for byte-exact round trips.
func FuzzInt64Codec(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(math.MinInt64))
	f.Add(int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, v int64) {
		first, second, err := Int64Codec.RoundTrip(v)
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("round trip of %d: err=%v first=%x second=%x", v, err, first, second)
		}
	})
}

// FuzzBytesCodec fuzzes the blob codec for byte-exact round trips.
func FuzzBytesCodec(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0})
	f.Add(maxSample)
	f.Fuzz(func(t *testing.T, v []byte) {
		first, second, err := BytesCodec.RoundTrip(v)
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("round trip of %d bytes: err=%v", len(v), err)
		}
	})
}

// TestVarintFailuresToldApart pins the two ways a varint can be bad, for the
// scalar decoders and for the column decoders alike: running out of bytes
// mid-value is an underflow, a value that does not fit 64 bits is an overflow.
// Every strict prefix of the longest valid encoding is probed, not a sample.
func TestVarintFailuresToldApart(t *testing.T) {
	maxU := binary.AppendUvarint(nil, math.MaxUint64) // ten bytes, the last one 0x01
	if len(maxU) != binary.MaxVarintLen64 {
		t.Fatalf("max uvarint encodes to %d bytes", len(maxU))
	}
	type probe struct {
		name string
		in   []byte
		want string // "" means it decodes
	}
	probes := []probe{
		{"empty", nil, "underflow"},
		{"ten-byte maximum", maxU, ""},
		{"eleven bytes", append(bytes.Repeat([]byte{0x80}, 10), 0x01), "overflow"},
		{"tenth byte too big", append(bytes.Repeat([]byte{0xFF}, 9), 0x02), "overflow"},
	}
	for k := 1; k < len(maxU); k++ {
		probes = append(probes, probe{fmt.Sprintf("truncated at byte %d", k), maxU[:k], "underflow"})
	}
	decoders := map[string]func(b *Buffer){
		"Uvarint":       func(b *Buffer) { b.Uvarint() },
		"Varint":        func(b *Buffer) { b.Varint() },
		"uint64 column": func(b *Buffer) { Uint64Codec.DecodeSlice(b, make([]uint64, 1)) },
		"int64 column":  func(b *Buffer) { Int64Codec.DecodeSlice(b, make([]int64, 1)) },
		"int column":    func(b *Buffer) { IntCodec.DecodeSlice(b, make([]int, 1)) },
		// The failing value is the third of the column: two good ones first.
		"int64 column, third value": func(b *Buffer) {
			in := append([]byte{0x02, 0x04}, b.Bytes()...)
			b.Reset(in)
			dst := []int64{-7, -7, -7}
			Int64Codec.DecodeSlice(b, dst)
			if dst[0] != 1 || dst[1] != 2 {
				t.Errorf("values before the failing one decoded to %v", dst[:2])
			}
		},
	}
	for name, decode := range decoders {
		for _, p := range probes {
			b := NewReader(p.in)
			decode(b)
			switch err := b.Err(); {
			case p.want == "" && (err != nil || b.Remaining() != 0):
				t.Errorf("%s, %s: err=%v remaining=%d, want a clean decode", name, p.name, err, b.Remaining())
			case p.want != "" && (err == nil || !strings.Contains(err.Error(), p.want)):
				t.Errorf("%s, %s: err=%v, want an %s", name, p.name, err, p.want)
			}
		}
	}
}

// TestColumnFormMatchesScalarForm pins the slice form of every built-in codec
// to its per-element definition: same bytes out, same values back, for the
// tight-loop codecs and for the per-element default alike.
func TestColumnFormMatchesScalarForm(t *testing.T) {
	for _, n := range []int{0, 1, 1024} {
		r := rand.New(rand.NewSource(int64(n)))
		ints, uints, floats, strs := make([]int64, n), make([]uint64, n), make([]float64, n), make([]string, n)
		for i := range ints {
			ints[i] = r.Int63()>>uint(r.Intn(64)) - r.Int63()>>uint(r.Intn(64))
			uints[i] = r.Uint64() >> uint(r.Intn(64))
			floats[i] = r.NormFloat64()
			strs[i] = strings.Repeat("x", r.Intn(5))
		}
		column, scalar := NewBuffer(), NewBuffer()
		Int64Codec.EncodeSlice(column, ints)
		Uint64Codec.EncodeSlice(column, uints)
		Float64Codec.EncodeSlice(column, floats)
		StringCodec.EncodeSlice(column, strs)
		for _, v := range ints {
			Int64Codec.Encode(scalar, v)
		}
		for _, v := range uints {
			Uint64Codec.Encode(scalar, v)
		}
		for _, v := range floats {
			Float64Codec.Encode(scalar, v)
		}
		for _, v := range strs {
			StringCodec.Encode(scalar, v)
		}
		if !bytes.Equal(column.Bytes(), scalar.Bytes()) {
			t.Errorf("%d values: the columns encode to %x, element by element to %x", n, column.Bytes(), scalar.Bytes())
		}
		gi, gu, gf, gs := make([]int64, n), make([]uint64, n), make([]float64, n), make([]string, n)
		dec := NewReader(column.Bytes())
		Int64Codec.DecodeSlice(dec, gi)
		Uint64Codec.DecodeSlice(dec, gu)
		Float64Codec.DecodeSlice(dec, gf)
		StringCodec.DecodeSlice(dec, gs)
		if dec.Err() != nil || dec.Remaining() != 0 ||
			!slices.Equal(gi, ints) || !slices.Equal(gu, uints) || !slices.Equal(gf, floats) || !slices.Equal(gs, strs) {
			t.Errorf("%d values: the columns did not decode to what was encoded (err=%v, %d bytes left)", n, dec.Err(), dec.Remaining())
		}
	}
}

// TestVarintLenMatchesEncoding probes the sizing helpers at every boundary a
// varint grows a byte at: frames are allocated from these sums.
func TestVarintLenMatchesEncoding(t *testing.T) {
	for shift := 0; shift < 64; shift++ {
		for _, u := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1, math.MaxUint64} {
			if got, want := uvarintLen(u), len(binary.AppendUvarint(nil, u)); got != want {
				t.Errorf("uvarintLen(%d) = %d, encodes to %d bytes", u, got, want)
			}
			for _, v := range []int64{int64(u), -int64(u)} {
				if got, want := varintLen(v), len(binary.AppendVarint(nil, v)); got != want {
					t.Errorf("varintLen(%d) = %d, encodes to %d bytes", v, got, want)
				}
			}
		}
	}
}
