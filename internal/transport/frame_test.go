package transport

import (
	"bytes"
	"testing"
)

// descEqual compares descriptors field by field (the Arg slice keeps the
// struct from being ==-comparable).
func descEqual(a, b RequestDescriptor) bool {
	return a.Handle == b.Handle && a.Kind == b.Kind && a.Bytes == b.Bytes &&
		a.Op == b.Op && a.Token == b.Token && bytes.Equal(a.Arg, b.Arg)
}

// TestBatchFrameRoundTrip covers representative batches including the
// boundary payload sizes: empty batch, zero payload, and a payload above the
// padding cap.
func TestBatchFrameRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		hdr  BatchHeader
		reqs []RequestDescriptor
	}{
		{"empty", BatchHeader{Src: 0, Dst: 1}, nil},
		{"one", BatchHeader{Src: 3, Dst: 0, Seq: 9, PayloadBytes: 24}, []RequestDescriptor{
			{Handle: 2, Kind: KindAsync, Bytes: 24},
		}},
		{"mixed-kinds", BatchHeader{Src: 1, Dst: 2, Seq: 1 << 40, PayloadBytes: 64}, []RequestDescriptor{
			{Handle: 0, Kind: KindAsync, Bytes: 8},
			{Handle: -1, Kind: KindUrgent, Bytes: 0},
			{Handle: 7, Kind: KindSync, Bytes: 16},
			{Handle: 7, Kind: KindSplit, Bytes: 8},
			{Handle: 3, Kind: KindBulk, Bytes: 32},
		}},
		{"padding-capped", BatchHeader{Src: 0, Dst: 1, Seq: 2, PayloadBytes: MaxPadBytes + 12345}, []RequestDescriptor{
			{Handle: 1, Kind: KindBulk, Bytes: 1 << 30},
		}},
		{"self-decoding", BatchHeader{Src: 2, Dst: 0, Seq: 4, PayloadBytes: 40}, []RequestDescriptor{
			{Handle: 1, Kind: KindAsync, Bytes: 16, Op: 0xDEADBEEF, Arg: []byte{1, 2, 3}},
			{Handle: 1, Kind: KindBulk, Bytes: 24, Op: 7, Arg: []byte{9}},
		}},
		{"reply", BatchHeader{Src: 1, Dst: 0, Seq: 0, PayloadBytes: 0}, []RequestDescriptor{
			{Handle: 2, Kind: KindReply, Bytes: 0, Op: 42, Token: 17, Arg: []byte{0xFF}},
		}},
		{"mixed-op-and-closure", BatchHeader{Src: 0, Dst: 3, Seq: 11, PayloadBytes: 32}, []RequestDescriptor{
			{Handle: 4, Kind: KindAsync, Bytes: 16, Op: 99, Arg: []byte{5, 6}},
			{Handle: 4, Kind: KindAsync, Bytes: 16},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := EncodeBatch(tc.hdr, tc.reqs)
			hdr, reqs, err := DecodeBatch(frame)
			if err != nil {
				t.Fatal(err)
			}
			if hdr != tc.hdr {
				t.Fatalf("header %+v, want %+v", hdr, tc.hdr)
			}
			if len(reqs) != len(tc.reqs) {
				t.Fatalf("%d descriptors, want %d", len(reqs), len(tc.reqs))
			}
			for i := range reqs {
				if !descEqual(reqs[i], tc.reqs[i]) {
					t.Fatalf("descriptor %d = %+v, want %+v", i, reqs[i], tc.reqs[i])
				}
			}
			// Re-encoding the decoded frame must be byte-identical.
			if again := EncodeBatch(hdr, reqs); !bytes.Equal(frame, again) {
				t.Fatal("re-encoded frame differs")
			}
			// A frame and its envelope are sized before they are built: one
			// allocation each, nothing grown, nothing left over.
			if envelope := encodeRelData(tc.hdr.Seq, 1<<40, frame); cap(frame) != len(frame) || cap(envelope) != len(envelope) {
				t.Fatalf("frame %d of %d bytes used, envelope %d of %d: not sized exactly", len(frame), cap(frame), len(envelope), cap(envelope))
			}
			// The padding actually carried is capped.
			if want := padLen(tc.hdr.PayloadBytes); want > MaxPadBytes {
				t.Fatalf("padLen exceeded cap: %d", want)
			}
		})
	}
}

// TestBatchFrameCorruption feeds malformed frames to DecodeBatch: every
// case must error, never panic.
func TestBatchFrameCorruption(t *testing.T) {
	good := EncodeBatch(BatchHeader{Src: 0, Dst: 1, Seq: 3, PayloadBytes: 16}, []RequestDescriptor{
		{Handle: 1, Kind: KindAsync, Bytes: 16},
	})
	cases := map[string][]byte{
		"empty":        {},
		"wrong-kind":   append([]byte{FrameAck}, good[1:]...),
		"truncated":    good[:len(good)-3],
		"extra-bytes":  append(append([]byte(nil), good...), 0xEE),
		"only-kind":    {FrameData},
		"count-beyond": {FrameData, 0, 1, 0, 0, 0xFF},
	}
	for name, frame := range cases {
		if _, _, err := DecodeBatch(frame); err == nil {
			t.Errorf("%s: corrupt frame decoded without error", name)
		}
	}
}

// TestAckFrameRoundTrip covers the acknowledgement frame.
func TestAckFrameRoundTrip(t *testing.T) {
	frame := EncodeAck(2, 5, 1<<33)
	src, dst, cum, err := DecodeAck(frame)
	if err != nil || src != 2 || dst != 5 || cum != 1<<33 {
		t.Fatalf("ack round trip: %d %d %d %v", src, dst, cum, err)
	}
	if _, _, _, err := DecodeAck([]byte{FrameData, 0}); err == nil {
		t.Error("data frame must not decode as an ack")
	}
	if _, _, _, err := DecodeAck([]byte{FrameAck}); err == nil {
		t.Error("truncated ack must error")
	}
}

// FuzzDecodeBatch asserts DecodeBatch never panics on arbitrary input and
// that whatever it accepts is value-stable: re-encoding the decoded frame
// and decoding again yields the same header and descriptors.  (Byte-exact
// canonicality only holds for frames we encoded ourselves — hostile input
// may use non-minimal varints.)
func FuzzDecodeBatch(f *testing.F) {
	f.Add(EncodeBatch(BatchHeader{Src: 0, Dst: 1}, nil))
	f.Add(EncodeBatch(BatchHeader{Src: 1, Dst: 0, Seq: 7, PayloadBytes: 32}, []RequestDescriptor{
		{Handle: 3, Kind: KindBulk, Bytes: 32},
	}))
	f.Add([]byte{FrameData, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, reqs, err := DecodeBatch(data)
		if err != nil {
			return
		}
		if hdr.PayloadBytes < 0 {
			return // only reachable from hostile headers
		}
		hdr2, reqs2, err := DecodeBatch(EncodeBatch(hdr, reqs))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if hdr2 != hdr || len(reqs2) != len(reqs) {
			t.Fatalf("value drift: %+v vs %+v", hdr2, hdr)
		}
		for i := range reqs {
			if !descEqual(reqs2[i], reqs[i]) {
				t.Fatalf("descriptor %d drifted: %+v vs %+v", i, reqs2[i], reqs[i])
			}
		}
	})
}

// FuzzDecodeAck asserts DecodeAck never panics and accepted acks are
// value-stable under re-encoding.
func FuzzDecodeAck(f *testing.F) {
	f.Add(EncodeAck(0, 1, 0))
	f.Add(EncodeAck(3, 2, 1<<50))
	f.Fuzz(func(t *testing.T, data []byte) {
		src, dst, cum, err := DecodeAck(data)
		if err != nil {
			return
		}
		if src < 0 || dst < 0 {
			return // negative endpoints only arise from hostile input
		}
		src2, dst2, cum2, err := DecodeAck(EncodeAck(src, dst, cum))
		if err != nil || src2 != src || dst2 != dst || cum2 != cum {
			t.Fatalf("ack drifted: %d %d %d (err %v)", src2, dst2, cum2, err)
		}
	})
}

// TestDecodedArgumentsAreViewsAndValuesAreCopies pins both halves of decoding
// in place.  What DecodeBatch returns for a descriptor's opaque argument is a
// window into the frame — no copy, clipped so an append cannot run into what
// follows.  What a value codec decodes out of that window is the receiver's
// own: scribbling over a decoded []byte or string leaves the frame alone, and
// (were anybody to break the Wire contract and) write the frame, the decoded
// values would not notice.
func TestDecodedArgumentsAreViewsAndValuesAreCopies(t *testing.T) {
	arg := NewBuffer()
	BytesCodec.Encode(arg, []byte("element bytes"))
	StringCodec.Encode(arg, "element string")
	frame := EncodeBatch(BatchHeader{Src: 0, Dst: 1, PayloadBytes: 64},
		[]RequestDescriptor{{Handle: 1, Kind: KindAsync, Bytes: 64, Op: 9, Arg: arg.Bytes()}})
	pristine := append([]byte(nil), frame...)

	_, descs, err := DecodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	view := descs[0].Arg
	if !bytes.Equal(view, arg.Bytes()) {
		t.Fatalf("decoded argument %x, want %x", view, arg.Bytes())
	}
	at := bytes.Index(frame, arg.Bytes())
	if &view[0] != &frame[at] {
		t.Fatal("the decoded argument is a copy, want a view into the frame")
	}
	if cap(view) != len(view) {
		t.Fatalf("the view has %d bytes of room behind it: an append would write the frame's padding", cap(view)-len(view))
	}

	r := NewReader(view)
	blob, str := BytesCodec.Decode(r), StringCodec.Decode(r)
	if r.Err() != nil || string(blob) != "element bytes" || str != "element string" {
		t.Fatalf("decoded (%q, %q, %v)", blob, str, r.Err())
	}
	for i := range blob {
		blob[i] = 'X'
	}
	if !bytes.Equal(frame, pristine) {
		t.Fatal("scribbling over a decoded []byte changed the frame")
	}
	for i := range frame {
		frame[i] = 'Y'
	}
	if string(blob) != "XXXXXXXXXXXXX" || str != "element string" {
		t.Fatalf("overwriting the frame changed decoded values: %q, %q", blob, str)
	}
}
