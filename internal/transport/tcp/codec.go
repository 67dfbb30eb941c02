// Package tcp is the real-socket wire backend for the transport layer:
// a transport.Fabric that moves message copies between the nodes of one
// run over loopback TCP connections instead of direct channel sends.
//
// The split of responsibilities is the Fabric contract (see
// internal/transport/fabric.go): virtual-time stamping, wire accounting,
// fault fates and ARQ state stay in the Network; this package only
// carries already-stamped copies. Each ordered node pair owns one
// outbound link (a frame queue, a writer goroutine, and a TCP connection
// with reconnect + exponential backoff); senders encode their frames
// into the queue on their own goroutines and the writer puts them on the
// wire in coalesced batches. Frames are length-prefixed and CRC-framed:
// a fixed binary header, then the payload in the protocol's own binary
// encoding (see Payload), whose length is the size the cost model charged
// for the message.
// A request frame's Pending field is its requester's reply key (see
// transport.Message.WireExtras); the handler's reply goes back as a reply
// frame carrying the same key, and the requester's reader hands it to
// transport.Network.DeliverReply. There is no pending table and no
// goroutine per request: the fabric's goroutines are one per listener,
// one writer per link and one reader per accepted connection.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
)

// Frame types.
const (
	frameMsg   = 1 // a one-way or request message copy
	frameReply = 2 // the reply to a pending request
)

// Header flag bits.
const (
	flagDropReply = 1 << 0 // fault plan: the reply to this copy is lost
)

const (
	frameMagic = 0x5D53 // "S]" — stamps every frame body
	// Version 2 extended the fixed header with the piggybacked trace
	// context (trace id, parent span id, origin tag). Version 3 appended
	// the sender's membership-epoch view, so epoch fencing works
	// identically over real sockets. Version 4 carries the payload's type
	// tag beside the kind (0: no payload; it replaces the has-payload
	// flag) and the payload in the protocol's binary encoding.
	frameVersion = 4

	// prefixLen is the length-prefix + CRC preamble: u32 body length,
	// u32 IEEE CRC over the body.
	prefixLen = 8
	// headerLen is the fixed body header: magic u16, version, type,
	// flags, kind, payload tag, from u32, to u32, seq, req id, sent-at
	// (i64 each), size u32, extra delay i64, pending u64, trace id u64,
	// span id u64, trace tag u8, epoch i64.
	headerLen = 2 + 1 + 1 + 1 + 1 + 1 + 4 + 4 + 8 + 8 + 8 + 4 + 8 + 8 + 8 + 8 + 1 + 8
)

// DefaultMaxFrame bounds a frame's body length. It must exceed the
// largest payload a run can produce (a per-home diff batch covering a
// node's whole page range); decoders reject longer frames before
// allocating, so a corrupted length prefix cannot OOM the process.
const DefaultMaxFrame = 16 << 20

// Payload is what the codec needs of a message payload. The protocol
// layer's message types implement it (internal/hlrc/wire.go); this
// package never learns their layouts.
type Payload interface {
	// WireTag names the payload's Go type on the wire, 1..255. It is
	// carried in the frame header beside the message kind, so decoding
	// never has to trust the kind.
	WireTag() uint8
	// AppendWire appends the payload's encoding to dst. Its length is the
	// message's accounted size: the protocol derives both from one layout,
	// and the fabric checks on every send that the sender charged it.
	AppendWire(dst []byte) []byte
	// DecodeWire decodes b — one whole encoding — into a fresh value of
	// the receiver's type. The receiver is only an exemplar; the result
	// never aliases b (a connection buffer about to be reused). state is
	// the decoding reader's slot for state of the protocol's own, nil
	// when there is none: a FrameReader keeps the one slot for its
	// lifetime and decodes its frames one at a time, so the protocol may
	// fill the slot at the first frame and cut every later value from
	// it. Whatever state it keeps, a body decodes to the same value and
	// the same error with it as without.
	DecodeWire(b []byte, state *any) (any, error)
}

// ErrUnknownTag reports a frame whose payload tag no registered payload
// type claims.
var ErrUnknownTag = errors.New("tcp: unknown payload tag")

// The tag → exemplar table behind DecodeFrame, filled at start-up by
// RegisterPayloads (New calls it with Options.Payloads) and read on
// every frame; writers copy it.
var (
	payloadMu    sync.Mutex
	payloadTypes atomic.Pointer[[256]Payload]
)

// RegisterPayloads adds one exemplar per payload type to the decode
// table. Registering a type again is a no-op; an exemplar that is not a
// Payload, tag 0, or a tag another type already holds is an error.
func RegisterPayloads(exemplars []any) error {
	payloadMu.Lock()
	defer payloadMu.Unlock()
	var table [256]Payload
	if old := payloadTypes.Load(); old != nil {
		table = *old
	}
	for _, ex := range exemplars {
		p, ok := ex.(Payload)
		if !ok {
			return fmt.Errorf("tcp: payload exemplar %T has no wire codec (tcp.Payload)", ex)
		}
		tag := p.WireTag()
		if tag == 0 {
			return fmt.Errorf("tcp: payload exemplar %T claims tag 0, which means no payload", ex)
		}
		if have := table[tag]; have != nil && reflect.TypeOf(have) != reflect.TypeOf(p) {
			return fmt.Errorf("tcp: payload tag %d claimed by both %T and %T", tag, have, ex)
		}
		table[tag] = p
	}
	payloadTypes.Store(&table)
	return nil
}

// Frame is one wire frame: the backend-independent parts of a
// transport.Message plus the fabric's routing state.
type Frame struct {
	Type       uint8
	From, To   int32
	Kind       uint8
	Seq        int64
	ReqID      int64
	SentAt     int64 // sender's virtual clock (simtime.Time)
	Size       int32 // accounted wire size
	ExtraDelay int64 // fault-injected extra latency (simtime.Duration)
	DropReply  bool  // fault plan: reply to this copy is lost
	// Pending is the requester's reply key on a request and on its reply
	// (0 on one-way copies): the slot index and generation of the call
	// it answers, resolved on the requester's side.
	Pending uint64
	// Piggybacked causal trace context (obsv.TraceCtx); all-zero when
	// the originating op is untraced.
	TraceID  uint64
	SpanID   uint64
	TraceTag uint8
	// Epoch is the sender's membership-epoch view (transport fencing).
	Epoch int64
	// Payload is nil or a Payload. The codec does not compare its encoded
	// length with Size; the fabric's send path does.
	Payload any
}

// AppendFrame appends the encoded frame (prefix + body) to dst and
// returns the extended slice. It allocates only to grow dst.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	var p Payload
	var tag uint8
	if f.Payload != nil {
		var ok bool
		if p, ok = f.Payload.(Payload); !ok {
			return nil, fmt.Errorf("tcp: payload %T of kind %d has no wire codec (tcp.Payload)", f.Payload, f.Kind)
		}
		if tag = p.WireTag(); tag == 0 {
			return nil, fmt.Errorf("tcp: payload %T of kind %d claims tag 0, which means no payload", f.Payload, f.Kind)
		}
	}
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // the prefix, filled in below
	var flags uint8
	if f.DropReply {
		flags |= flagDropReply
	}
	dst = binary.LittleEndian.AppendUint16(dst, frameMagic)
	dst = append(dst, frameVersion, f.Type, flags, f.Kind, tag)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.From))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.To))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Seq))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.ReqID))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.SentAt))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Size))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.ExtraDelay))
	dst = binary.LittleEndian.AppendUint64(dst, f.Pending)
	dst = binary.LittleEndian.AppendUint64(dst, f.TraceID)
	dst = binary.LittleEndian.AppendUint64(dst, f.SpanID)
	dst = append(dst, f.TraceTag)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Epoch))
	if p != nil {
		dst = p.AppendWire(dst)
	}
	body := dst[base+prefixLen:]
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[base+4:], crc32.ChecksumIEEE(body))
	return dst, nil
}

// decodeBody parses one frame body (the bytes the length prefix covers,
// CRC already verified) into f, overwriting every field, decoding the
// payload through state (see Payload.DecodeWire). It rejects malformed
// input with an error, never a panic: the body is attacker-controlled
// from the decoder's point of view (a corrupted stream must not take the
// process down). The decoded payload does not alias body.
func decodeBody(f *Frame, body []byte, state *any) error {
	if len(body) < headerLen {
		return fmt.Errorf("tcp: frame body %d bytes, header needs %d", len(body), headerLen)
	}
	if m := binary.LittleEndian.Uint16(body[0:]); m != frameMagic {
		return fmt.Errorf("tcp: bad frame magic %#x", m)
	}
	if v := body[2]; v != frameVersion {
		return fmt.Errorf("tcp: unsupported frame version %d", v)
	}
	*f = Frame{Type: body[3], Kind: body[5]}
	if f.Type != frameMsg && f.Type != frameReply {
		return fmt.Errorf("tcp: unknown frame type %d", f.Type)
	}
	flags := body[4]
	if flags&^uint8(flagDropReply) != 0 {
		return fmt.Errorf("tcp: unknown frame flags %#x", flags)
	}
	f.DropReply = flags&flagDropReply != 0
	tag := body[6]
	f.From = int32(binary.LittleEndian.Uint32(body[7:]))
	f.To = int32(binary.LittleEndian.Uint32(body[11:]))
	f.Seq = int64(binary.LittleEndian.Uint64(body[15:]))
	f.ReqID = int64(binary.LittleEndian.Uint64(body[23:]))
	f.SentAt = int64(binary.LittleEndian.Uint64(body[31:]))
	f.Size = int32(binary.LittleEndian.Uint32(body[39:]))
	f.ExtraDelay = int64(binary.LittleEndian.Uint64(body[43:]))
	f.Pending = binary.LittleEndian.Uint64(body[51:])
	f.TraceID = binary.LittleEndian.Uint64(body[59:])
	f.SpanID = binary.LittleEndian.Uint64(body[67:])
	f.TraceTag = body[75]
	f.Epoch = int64(binary.LittleEndian.Uint64(body[76:]))
	rest := body[headerLen:]
	if tag == 0 {
		if len(rest) != 0 {
			return fmt.Errorf("tcp: %d trailing bytes on payload-less frame", len(rest))
		}
		return nil
	}
	var ex Payload
	if table := payloadTypes.Load(); table != nil {
		ex = table[tag]
	}
	if ex == nil {
		return fmt.Errorf("%w %d on a frame of kind %d", ErrUnknownTag, tag, f.Kind)
	}
	p, err := ex.DecodeWire(rest, state)
	if err != nil {
		return fmt.Errorf("tcp: payload of kind %d: %w", f.Kind, err)
	}
	f.Payload = p
	return nil
}

// checkPrefix validates a frame's preamble against the length bound and
// returns the body length.
func checkPrefix(prefix []byte, maxFrame int) (int, error) {
	n := int(binary.LittleEndian.Uint32(prefix[0:]))
	if n < headerLen || n > maxFrame {
		return 0, fmt.Errorf("tcp: frame length %d outside [%d, %d]", n, headerLen, maxFrame)
	}
	return n, nil
}

// frameLen is the length, prefix included, of the encoded frame b starts
// with.
func frameLen(b []byte) int { return prefixLen + int(binary.LittleEndian.Uint32(b)) }

// checkCRC verifies a body against the CRC its preamble stored.
func checkCRC(prefix, body []byte) error {
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(prefix[4:]); got != want {
		return fmt.Errorf("tcp: frame CRC mismatch: computed %#x, stored %#x", got, want)
	}
	return nil
}

// DecodeFrame parses one complete frame (prefix + body) from b,
// returning the frame and the bytes consumed. It keeps no decode state,
// so every payload is made on its own. Used by tests and the fuzzer; the
// connection path streams through a FrameReader instead.
func DecodeFrame(b []byte, maxFrame int) (*Frame, int, error) { return decodeFrame(b, maxFrame, nil) }

// decodeFrame is DecodeFrame decoding the payload through state.
func decodeFrame(b []byte, maxFrame int, state *any) (*Frame, int, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if len(b) < prefixLen {
		return nil, 0, fmt.Errorf("tcp: short frame prefix: %d bytes", len(b))
	}
	n, err := checkPrefix(b, maxFrame)
	if err != nil {
		return nil, 0, err
	}
	if len(b) < prefixLen+n {
		return nil, 0, fmt.Errorf("tcp: truncated frame: have %d of %d body bytes", len(b)-prefixLen, n)
	}
	body := b[prefixLen : prefixLen+n]
	if err := checkCRC(b, body); err != nil {
		return nil, 0, err
	}
	f := new(Frame)
	if err := decodeBody(f, body, state); err != nil {
		return nil, 0, err
	}
	return f, prefixLen + n, nil
}

// FrameReader reads the frames of one connection stream through one body
// buffer, grown to the largest frame the stream has carried (decoded
// payloads never alias it), and decodes their payloads through one state
// slot it keeps for its lifetime (see Payload.DecodeWire). Like the
// stream, it belongs to one goroutine.
type FrameReader struct {
	r        io.Reader
	maxFrame int
	prefix   [prefixLen]byte
	body     []byte
	state    any // the payloads' decode state, opaque here
}

// NewFrameReader returns a reader over r. maxFrame bounds a frame's body
// length (0 = DefaultMaxFrame).
func NewFrameReader(r io.Reader, maxFrame int) *FrameReader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &FrameReader{r: r, maxFrame: maxFrame}
}

// ReadFrame reads the next frame into f. The length bound is enforced
// before the buffer grows, so a corrupted prefix cannot cause an OOM; a
// CRC mismatch poisons the connection (the caller tears it down and the
// link-level retransmission recovers).
func (fr *FrameReader) ReadFrame(f *Frame) error {
	prefix := fr.prefix[:]
	if _, err := io.ReadFull(fr.r, prefix); err != nil {
		return err
	}
	n, err := checkPrefix(prefix, fr.maxFrame)
	if err != nil {
		return err
	}
	if cap(fr.body) < n {
		fr.body = make([]byte, n)
	}
	body := fr.body[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return err
	}
	if err := checkCRC(prefix, body); err != nil {
		return err
	}
	return decodeBody(f, body, &fr.state)
}
