package transport

import "fmt"

// Frame kinds, encoded as the first byte of every frame so that wrappers
// (chaos, reliable) can classify a frame without decoding it.
const (
	// FrameData carries a batch of RMI request descriptors plus payload
	// padding.  Only data frames are subject to chaos injection.
	FrameData = 0x01
	// FrameAck is the reliable layer's cumulative acknowledgement.
	FrameAck = 0x02
)

// Request kinds carried by a request descriptor (mirrors the RMI flavours
// of the runtime).
const (
	KindAsync  = 0x01
	KindUrgent = 0x02
	KindSync   = 0x03
	KindSplit  = 0x04 // reserved: no sender emits it; kept so later kinds keep their values
	KindBulk   = 0x05
	// KindReply carries the result of a registered value-returning operation
	// back to the request's origin, addressed by a completion token.
	KindReply = 0x06
)

// RequestDescriptor is the wire form of one RMI request header.  A request
// whose operation is registered (Op != 0) is fully self-contained: the
// descriptor carries the encoded argument, and the receiving side
// reconstructs and executes the request from bytes alone.  A request
// carrying an unregistered closure has Op == 0 and no argument bytes; its
// batch takes the compatibility path through the sender-side rendezvous
// table (see BatchHeader).
type RequestDescriptor struct {
	// Handle addresses the registered p_object representative.
	Handle int32
	// Kind is one of the Kind* constants.
	Kind uint8
	// Bytes is the simulated marshalled size of the request's argument
	// payload (the workload-level accounting figure; the actual encoded
	// argument may be smaller or larger).
	Bytes uint32
	// Op identifies the registered operation (a stable 64-bit hash of its
	// registration name); 0 means an unregistered closure request.
	Op uint64
	// Token, for KindReply descriptors, names the origin's completion
	// callback.  It is 0 for every other kind (a value-returning operation
	// ships its own token inside Arg, so forwarding hops preserve it).
	Token uint64
	// Arg is the Codec-encoded argument (Op != 0 only).
	Arg []byte
}

// BatchHeader describes one mailbox batch in flight between two locations.
//
// A batch whose requests are all registered operations (Op != 0 on every
// descriptor) is self-decoding: the frame carries each request's encoded
// argument and the receiver reconstructs and executes the batch from bytes
// alone — nothing waits on the sender.  This is the only mode a
// multi-process transport supports.
//
// A batch containing an unregistered closure request takes the fallback
// path: the descriptors plus payload padding cross the wire, while the
// closure batch itself waits in the sender's rendezvous table keyed by
// (Src, Dst, Seq) and the receiving side of the single-process wire matches
// the decoded header back to the batch.  Residual use of this path is
// exposed by the WireStats.RendezvousFallbacks counter.
type BatchHeader struct {
	Src, Dst int
	// Seq numbers batches per (Src, Dst) pair, starting at 0.
	Seq uint64
	// PayloadBytes is the total simulated argument size of the batch.  The
	// frame is padded so the wire sees the simulated volume even when the
	// actual encoded arguments are smaller (see EncodeBatch).
	PayloadBytes int
}

// MaxPadBytes bounds the padding of a single frame so a pathological
// simulated size cannot allocate an unbounded frame.
const MaxPadBytes = 1 << 20

// padLen returns the actual padding carried for a simulated payload size.
func padLen(payloadBytes int) int {
	if payloadBytes < 0 {
		return 0
	}
	if payloadBytes > MaxPadBytes {
		return MaxPadBytes
	}
	return payloadBytes
}

// EncodeBatch encodes a data frame: header, request descriptors (each with
// its encoded argument when the operation is registered), payload padding.
// The frame is padded with padLen(PayloadBytes − Σ len(Arg)) zero bytes —
// the simulated volume not already carried as real argument bytes — so the
// wire sees the accounted traffic in either mode.  The frame is sized first and
// allocated once; the result is a fresh slice owned by the caller, and the
// descriptors' Arg bytes have been copied into it.
func EncodeBatch(hdr BatchHeader, reqs []RequestDescriptor) []byte {
	size := 1 + uvarintLen(uint64(hdr.Src)) + uvarintLen(uint64(hdr.Dst)) + uvarintLen(hdr.Seq) +
		uvarintLen(uint64(hdr.PayloadBytes)) + uvarintLen(uint64(len(reqs)))
	argBytes := 0
	for i := range reqs {
		r := &reqs[i]
		size += varintLen(int64(r.Handle)) + 1 + uvarintLen(uint64(r.Bytes)) + uvarintLen(r.Op)
		if r.Op != 0 {
			size += uvarintLen(r.Token) + uvarintLen(uint64(len(r.Arg))) + len(r.Arg)
			argBytes += len(r.Arg)
		}
	}
	pad := padLen(hdr.PayloadBytes - argBytes)
	b := Buffer{buf: make([]byte, 0, size+pad)}
	b.PutU8(FrameData)
	b.PutUvarint(uint64(hdr.Src))
	b.PutUvarint(uint64(hdr.Dst))
	b.PutUvarint(hdr.Seq)
	b.PutUvarint(uint64(hdr.PayloadBytes))
	b.PutUvarint(uint64(len(reqs)))
	for i := range reqs {
		r := &reqs[i]
		b.PutVarint(int64(r.Handle))
		b.PutU8(r.Kind)
		b.PutUvarint(uint64(r.Bytes))
		b.PutUvarint(r.Op)
		if r.Op != 0 {
			b.PutUvarint(r.Token)
			b.PutBlob(r.Arg)
		}
	}
	// The padding is the rest of the allocation, which make zeroed: reserving
	// it was appending it.
	return b.buf[:len(b.buf)+pad]
}

// DecodeBatch decodes a data frame produced by EncodeBatch.  The descriptors'
// Arg fields are views into frame, not copies: they stay valid for as long as
// the frame does, which under the Wire contract is for good.
func DecodeBatch(frame []byte) (BatchHeader, []RequestDescriptor, error) {
	b := Buffer{buf: frame}
	if kind := b.U8(); kind != FrameData {
		return BatchHeader{}, nil, fmt.Errorf("transport: expected data frame, got kind 0x%02x", kind)
	}
	var hdr BatchHeader
	hdr.Src = int(b.Uvarint())
	hdr.Dst = int(b.Uvarint())
	hdr.Seq = b.Uvarint()
	hdr.PayloadBytes = int(b.Uvarint())
	n := b.Uvarint()
	if err := b.Err(); err != nil {
		return BatchHeader{}, nil, err
	}
	if n > uint64(b.Remaining()) {
		return BatchHeader{}, nil, fmt.Errorf("transport: corrupt batch: %d descriptors, %d bytes left", n, b.Remaining())
	}
	reqs := make([]RequestDescriptor, n)
	argBytes := 0
	for i := range reqs {
		r := &reqs[i]
		r.Handle, r.Kind, r.Bytes, r.Op = int32(b.Varint()), b.U8(), uint32(b.Uvarint()), b.Uvarint()
		if r.Op != 0 {
			r.Token, r.Arg = b.Uvarint(), b.view()
			argBytes += len(r.Arg)
		}
	}
	if err := b.Err(); err != nil {
		return BatchHeader{}, nil, err
	}
	if want := padLen(hdr.PayloadBytes - argBytes); b.Remaining() != want {
		return BatchHeader{}, nil, fmt.Errorf("transport: corrupt batch: %d padding bytes, want %d", b.Remaining(), want)
	}
	return hdr, reqs, nil
}

// EncodeAck encodes a cumulative acknowledgement for a (src, dst) data
// stream: every data frame of the pair with sequence <= cum has been
// delivered.  src/dst name the DATA direction (the ack itself travels
// dst -> src).
func EncodeAck(src, dst int, cum uint64) []byte {
	b := NewBuffer()
	b.PutU8(FrameAck)
	b.PutUvarint(uint64(src))
	b.PutUvarint(uint64(dst))
	b.PutUvarint(cum)
	return b.Bytes()
}

// DecodeAck decodes an acknowledgement frame.
func DecodeAck(frame []byte) (src, dst int, cum uint64, err error) {
	b := NewReader(frame)
	if kind := b.U8(); kind != FrameAck {
		return 0, 0, 0, fmt.Errorf("transport: expected ack frame, got kind 0x%02x", kind)
	}
	src = int(b.Uvarint())
	dst = int(b.Uvarint())
	cum = b.Uvarint()
	if err := b.Err(); err != nil {
		return 0, 0, 0, err
	}
	if b.Remaining() != 0 {
		return 0, 0, 0, fmt.Errorf("transport: %d trailing bytes after ack", b.Remaining())
	}
	return src, dst, cum, nil
}
