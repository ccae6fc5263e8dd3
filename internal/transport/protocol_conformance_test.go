package transport

import (
	"bytes"
	"reflect"
	"testing"
)

// Conformance tests for docs/PROTOCOL.md: every example frame in the spec is
// written out here BYTE FOR BYTE, by hand, and must encode and decode
// exactly.  A change that alters the wire format fails these tests and must
// update the spec (and bump its version note) in the same commit.

// Example 1 (PROTOCOL.md §4.4): a closure-fallback batch — one KindAsync
// descriptor with Op = 0, simulated payload 4 bytes, so the frame carries
// 4 bytes of zero padding and no argument bytes.
func TestConformanceClosureFallbackFrame(t *testing.T) {
	hdr := BatchHeader{Src: 1, Dst: 2, Seq: 5, PayloadBytes: 4}
	descs := []RequestDescriptor{{Handle: 3, Kind: KindAsync, Bytes: 4, Op: 0}}
	want := []byte{
		0x01,                   // frame kind: FrameData
		0x01,                   // Src    = 1 (uvarint)
		0x02,                   // Dst    = 2 (uvarint)
		0x05,                   // Seq    = 5 (uvarint)
		0x04,                   // PayloadBytes = 4 (uvarint)
		0x01,                   // descriptor count = 1 (uvarint)
		0x06,                   // Handle = 3 (varint, zig-zag: 3 -> 6)
		0x01,                   // Kind   = KindAsync
		0x04,                   // Bytes  = 4 (uvarint)
		0x00,                   // Op     = 0: closure fallback, no Token/Arg follow
		0x00, 0x00, 0x00, 0x00, // padding: padLen(4 - 0) = 4 zero bytes
	}
	got := EncodeBatch(hdr, descs)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded frame diverges from the spec example:\n got %x\nwant %x", got, want)
	}
	dhdr, ddescs, err := DecodeBatch(want)
	if err != nil {
		t.Fatalf("decoding the spec example: %v", err)
	}
	if dhdr != hdr || !reflect.DeepEqual(ddescs, descs) {
		t.Fatalf("decoded (%+v, %+v), want (%+v, %+v)", dhdr, ddescs, hdr, descs)
	}
}

// Example 2 (PROTOCOL.md §4.4): a self-decoding batch — one KindUrgent
// descriptor naming operation 258 with a 2-byte encoded argument.  The
// simulated payload is 3 bytes, of which 2 travel as real argument bytes, so
// exactly 1 byte of padding remains.
func TestConformanceSelfDecodingFrame(t *testing.T) {
	hdr := BatchHeader{Src: 0, Dst: 1, Seq: 0, PayloadBytes: 3}
	descs := []RequestDescriptor{{
		Handle: 2, Kind: KindUrgent, Bytes: 3, Op: 258, Token: 0,
		Arg: []byte{0xDE, 0xAD},
	}}
	want := []byte{
		0x01,       // frame kind: FrameData
		0x00,       // Src = 0
		0x01,       // Dst = 1
		0x00,       // Seq = 0
		0x03,       // PayloadBytes = 3
		0x01,       // descriptor count = 1
		0x04,       // Handle = 2 (zig-zag: 2 -> 4)
		0x02,       // Kind = KindUrgent
		0x03,       // Bytes = 3
		0x82, 0x02, // Op = 258 (uvarint, two bytes)
		0x00,       // Token = 0 (present because Op != 0)
		0x02,       // Arg blob length = 2 (uvarint)
		0xDE, 0xAD, // Arg bytes (codec-encoded argument)
		0x00, // padding: padLen(3 - 2) = 1 zero byte
	}
	got := EncodeBatch(hdr, descs)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded frame diverges from the spec example:\n got %x\nwant %x", got, want)
	}
	dhdr, ddescs, err := DecodeBatch(want)
	if err != nil {
		t.Fatalf("decoding the spec example: %v", err)
	}
	if dhdr != hdr || !reflect.DeepEqual(ddescs, descs) {
		t.Fatalf("decoded (%+v, %+v), want (%+v, %+v)", dhdr, ddescs, hdr, descs)
	}
}

// Example 3 (PROTOCOL.md §4.4): a reply frame — one KindReply descriptor
// carrying completion token 7 and a 1-byte encoded reply value for operation
// 300.  Replies account no simulated payload, so the frame has no padding.
func TestConformanceReplyFrame(t *testing.T) {
	hdr := BatchHeader{Src: 2, Dst: 0, Seq: 1, PayloadBytes: 0}
	descs := []RequestDescriptor{{
		Handle: 0, Kind: KindReply, Bytes: 0, Op: 300, Token: 7,
		Arg: []byte{0x2A},
	}}
	want := []byte{
		0x01,       // frame kind: FrameData
		0x02,       // Src = 2
		0x00,       // Dst = 0
		0x01,       // Seq = 1
		0x00,       // PayloadBytes = 0
		0x01,       // descriptor count = 1
		0x00,       // Handle = 0
		0x06,       // Kind = KindReply
		0x00,       // Bytes = 0
		0xAC, 0x02, // Op = 300 (uvarint, two bytes)
		0x07, // Token = 7: names the origin's completion callback
		0x01, // Arg blob length = 1
		0x2A, // Arg bytes (return-codec-encoded reply value)
		// no padding: padLen(0 - 1) = 0
	}
	got := EncodeBatch(hdr, descs)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded frame diverges from the spec example:\n got %x\nwant %x", got, want)
	}
	dhdr, ddescs, err := DecodeBatch(want)
	if err != nil {
		t.Fatalf("decoding the spec example: %v", err)
	}
	if dhdr != hdr || !reflect.DeepEqual(ddescs, descs) {
		t.Fatalf("decoded (%+v, %+v), want (%+v, %+v)", dhdr, ddescs, hdr, descs)
	}
}

// PROTOCOL.md §5: the stand-alone acknowledgement frame.
func TestConformanceAckFrame(t *testing.T) {
	want := []byte{
		0x02, // frame kind: FrameAck
		0x01, // Src = 1 (the DATA direction; the ack travels Dst -> Src)
		0x02, // Dst = 2
		0x29, // Cum = 41: every data frame of the pair with seq <= 41 arrived
	}
	got := EncodeAck(1, 2, 41)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded ack diverges from the spec example:\n got %x\nwant %x", got, want)
	}
	src, dst, cum, err := DecodeAck(want)
	if err != nil {
		t.Fatalf("decoding the spec ack: %v", err)
	}
	if src != 1 || dst != 2 || cum != 41 {
		t.Fatalf("decoded ack (%d, %d, %d), want (1, 2, 41)", src, dst, cum)
	}
}

// PROTOCOL.md §5: the reliable data envelope wrapping an inner frame, with
// and without an acknowledgement of the reverse pair on board.
func TestConformanceReliableEnvelope(t *testing.T) {
	inner := []byte{0x01, 0x02, 0x03}
	for _, tc := range []struct {
		name string
		ack  uint64
		want []byte
	}{
		{"acknowledging the reverse pair through seq 41", 42, []byte{
			0x01,             // envelope kind: FrameData
			0x09,             // per-pair sequence number = 9 (uvarint)
			0x2A,             // Ack = 42: every envelope of the REVERSE pair with seq <= 41 arrived
			0x03,             // inner frame blob length = 3 (uvarint)
			0x01, 0x02, 0x03, // inner frame bytes, verbatim
		}},
		{"nothing to acknowledge", 0, []byte{
			0x01,             // envelope kind: FrameData
			0x09,             // per-pair sequence number = 9
			0x00,             // Ack = 0: nothing of the reverse pair has arrived
			0x03,             // inner frame blob length = 3
			0x01, 0x02, 0x03, // inner frame bytes, verbatim
		}},
	} {
		got := encodeRelData(9, tc.ack, inner)
		if !bytes.Equal(got, tc.want) {
			t.Fatalf("%s: encoded envelope diverges from the spec example:\n got %x\nwant %x", tc.name, got, tc.want)
		}
		seq, ack, din, err := decodeRelData(tc.want)
		if err != nil {
			t.Fatalf("%s: decoding the spec envelope: %v", tc.name, err)
		}
		if seq != 9 || ack != tc.ack || !bytes.Equal(din, inner) {
			t.Fatalf("%s: decoded envelope (seq %d, ack %d, %x), want (9, %d, %x)", tc.name, seq, ack, din, tc.ack, inner)
		}
	}
}

// PROTOCOL.md §4.3: padding is capped at MaxPadBytes (1 MiB) regardless of
// the simulated payload size, and the receiver validates the exact padding
// length it implies.
func TestConformancePaddingCap(t *testing.T) {
	hdr := BatchHeader{Src: 0, Dst: 1, Seq: 0, PayloadBytes: MaxPadBytes + 1000}
	frame := EncodeBatch(hdr, []RequestDescriptor{{Handle: 1, Kind: KindBulk, Bytes: 0, Op: 0}})
	headerLen := len(frame) - MaxPadBytes
	if headerLen <= 0 {
		t.Fatalf("frame of %d bytes carries less than the capped %d padding bytes", len(frame), MaxPadBytes)
	}
	for _, b := range frame[headerLen:] {
		if b != 0 {
			t.Fatal("padding bytes must be zero")
		}
	}
	dhdr, _, err := DecodeBatch(frame)
	if err != nil {
		t.Fatalf("decoding capped-padding frame: %v", err)
	}
	if dhdr.PayloadBytes != MaxPadBytes+1000 {
		t.Fatalf("PayloadBytes = %d survived as %d", MaxPadBytes+1000, dhdr.PayloadBytes)
	}
	// A frame whose padding does not match padLen(PayloadBytes - Σ|Arg|) is
	// rejected, not silently accepted.
	if _, _, err := DecodeBatch(frame[:len(frame)-1]); err == nil {
		t.Fatal("frame with short padding must be rejected")
	}
}

// PROTOCOL.md §7: truncated or corrupt frames are decode errors, never
// partial successes.
func TestConformanceCorruptFramesRejected(t *testing.T) {
	good := EncodeBatch(BatchHeader{Src: 0, Dst: 1, Seq: 0, PayloadBytes: 0},
		[]RequestDescriptor{{Handle: 1, Kind: KindAsync, Bytes: 0, Op: 258, Token: 0, Arg: []byte{0x01}}})
	if _, _, err := DecodeBatch(good); err != nil {
		t.Fatalf("control: %v", err)
	}
	for name, frame := range map[string][]byte{
		"empty":            {},
		"wrong kind":       {0x7F, 0x00, 0x01},
		"truncated header": good[:3],
		"truncated arg":    good[:len(good)-1],
	} {
		if _, _, err := DecodeBatch(frame); err == nil {
			t.Errorf("%s frame decoded without error", name)
		}
	}
	if _, _, _, err := DecodeAck([]byte{0x02, 0x01}); err == nil {
		t.Error("truncated ack decoded without error")
	}
	// The envelope of §5, its acknowledgement field two bytes long: cut short
	// at every byte it is a decode error, and so is anything after it.
	envelope := encodeRelData(9, 300, []byte{0x01, 0x02, 0x03})
	if seq, ack, inner, err := decodeRelData(envelope); err != nil || seq != 9 || ack != 300 || len(inner) != 3 {
		t.Fatalf("control: (%d, %d, %x, %v)", seq, ack, inner, err)
	}
	for cut := 0; cut < len(envelope); cut++ {
		if _, _, _, err := decodeRelData(envelope[:cut]); err == nil {
			t.Errorf("envelope truncated to %d of %d bytes decoded without error", cut, len(envelope))
		}
	}
	for name, frame := range map[string][]byte{
		"trailing byte": append(append([]byte(nil), envelope...), 0x00),
		"ack kind":      append([]byte{0x02}, envelope[1:]...),
		// Eleven continuation bytes where the acknowledgement belongs: more
		// than 64 bits' worth.
		"over-long ack": {0x01, 0x09, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x00},
	} {
		if _, _, _, err := decodeRelData(frame); err == nil {
			t.Errorf("%s: envelope decoded without error", name)
		}
	}
}
