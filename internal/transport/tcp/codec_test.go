package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
)

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// testPayload stands in for a protocol payload struct: A u32 | len(B) u16
// | B | Data to the end of the body.
type testPayload struct {
	A    int32
	B    string
	Data []byte
}

const testPayloadTag = 200 // far from the protocol's tags

func (*testPayload) WireTag() uint8 { return testPayloadTag }

func (p *testPayload) WireSize() int { return 6 + len(p.B) + len(p.Data) }

func (p *testPayload) AppendWire(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.A))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(p.B)))
	dst = append(dst, p.B...)
	return append(dst, p.Data...)
}

func (*testPayload) DecodeWire(b []byte, _ *any) (any, error) {
	if len(b) < 6 {
		return nil, fmt.Errorf("testPayload: %d-byte body", len(b))
	}
	p := &testPayload{A: int32(binary.LittleEndian.Uint32(b))}
	n := int(binary.LittleEndian.Uint16(b[4:]))
	b = b[6:]
	if len(b) < n {
		return nil, fmt.Errorf("testPayload: string of %d bytes in %d", n, len(b))
	}
	p.B = string(b[:n])
	if len(b) > n {
		p.Data = append([]byte(nil), b[n:]...)
	}
	return p, nil
}

func init() {
	if err := RegisterPayloads([]any{&testPayload{}}); err != nil {
		panic(err)
	}
}

// readOne decodes the first frame of a stream through a fresh FrameReader.
func readOne(b []byte, maxFrame int) (*Frame, error) {
	var f Frame
	if err := NewFrameReader(bytes.NewReader(b), maxFrame).ReadFrame(&f); err != nil {
		return nil, err
	}
	return &f, nil
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []*Frame{
		{
			Type: frameMsg, From: 0, To: 1, Kind: 3,
			Seq: 9, ReqID: 4, SentAt: 123456, Size: 4096,
			ExtraDelay: 55, DropReply: true, Pending: 77,
			Payload: &testPayload{A: 42, B: "hi", Data: []byte{1, 2, 3}},
		},
		{Type: frameReply, From: 1, To: 0, Kind: 4, SentAt: 999, Size: 16, Pending: 77},
		{Type: frameMsg, From: 2, To: 3, Kind: 1, Seq: 1, Size: 0},
		// Piggybacked trace context must survive the wire intact.
		{
			Type: frameMsg, From: 3, To: 0, Kind: 7, Seq: 2, Size: 64,
			TraceID: 0xdeadbeefcafef00d, SpanID: 0x0123456789abcdef, TraceTag: 2,
		},
		{Type: frameReply, From: 0, To: 3, Kind: 8, Size: 8,
			TraceID: 1, SpanID: ^uint64(0), TraceTag: 255, Epoch: -3},
	}
	var buf []byte
	var err error
	for _, f := range frames {
		if buf, err = AppendFrame(buf, f); err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
	}
	off := 0
	for i, want := range frames {
		got, n, err := DecodeFrame(buf[off:], 0)
		if err != nil {
			t.Fatalf("frame %d: DecodeFrame: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

// TestFrameReaderStream reads frames of very different sizes through one
// FrameReader: the shared body buffer must neither leak one frame's
// bytes into the next nor be aliased by a decoded payload.
func TestFrameReaderStream(t *testing.T) {
	want := []*Frame{
		{Type: frameMsg, From: 5, To: 6, Kind: 2, Seq: 11, Size: 100, Payload: &testPayload{B: "stream"}},
		{Type: frameMsg, From: 5, To: 6, Kind: 2, Seq: 12, Payload: &testPayload{A: 1, Data: bytes.Repeat([]byte{0xab}, 5000)}},
		{Type: frameReply, From: 6, To: 5, Kind: 9, Pending: 3},
		{Type: frameMsg, From: 5, To: 6, Kind: 2, Seq: 13, Payload: &testPayload{A: 2, Data: []byte{1, 2, 3}}},
	}
	var stream []byte
	for _, f := range want {
		var err error
		if stream, err = AppendFrame(stream, f); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(stream), 0)
	var got []Frame
	for range want {
		var f Frame
		if err := fr.ReadFrame(&f); err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		got = append(got, f)
	}
	// Compared only now: a payload aliasing the reader's buffer would
	// have been overwritten by the frames read after it.
	for i := range want {
		if !reflect.DeepEqual(&got[i], want[i]) {
			t.Fatalf("frame %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	var f Frame
	if err := fr.ReadFrame(&f); err == nil {
		t.Fatal("ReadFrame past the end of the stream succeeded")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	valid, err := AppendFrame(nil, &Frame{Type: frameMsg, From: 1, To: 0, Kind: 2, Seq: 1, Size: 10,
		Payload: &testPayload{A: 7, B: "xy"}})
	if err != nil {
		t.Fatal(err)
	}
	noPayload, err := AppendFrame(nil, &Frame{Type: frameReply, From: 0, To: 1, Kind: 1})
	if err != nil {
		t.Fatal(err)
	}
	const tagAt = prefixLen + 6
	fix := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[0:], uint32(len(b)-prefixLen))
		binary.LittleEndian.PutUint32(b[4:], crcOf(b[prefixLen:]))
		return b
	}
	corrupt := func(src []byte, mut func(b []byte)) []byte {
		b := append([]byte(nil), src...)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		b    []byte
		max  int
	}{
		{"short prefix", valid[:prefixLen-1], 0},
		{"truncated body", valid[:len(valid)-1], 0},
		{"oversized length", corrupt(valid, func(b []byte) {
			binary.LittleEndian.PutUint32(b[0:], 0xffffff00)
		}), 0},
		{"length above maxFrame", valid, headerLen + 1},
		{"length below header", corrupt(valid, func(b []byte) {
			binary.LittleEndian.PutUint32(b[0:], headerLen-1)
		}), 0},
		{"bad CRC", corrupt(valid, func(b []byte) { b[len(b)-1] ^= 0xff }), 0},
		{"bad magic", fix(corrupt(valid, func(b []byte) { b[prefixLen] ^= 0xff })), 0},
		{"version 3", fix(corrupt(valid, func(b []byte) { b[prefixLen+2] = 3 })), 0},
		{"unknown type", fix(corrupt(valid, func(b []byte) { b[prefixLen+3] = 9 })), 0},
		{"unknown flags", fix(corrupt(valid, func(b []byte) { b[prefixLen+4] |= 0x80 })), 0},
		// v3's has-payload bit is no longer a flag.
		{"retired payload flag", fix(corrupt(valid, func(b []byte) { b[prefixLen+4] |= 1 << 1 })), 0},
		{"unknown tag", fix(corrupt(valid, func(b []byte) { b[tagAt] = 199 })), 0},
		{"tag 0 with payload bytes", fix(corrupt(valid, func(b []byte) { b[tagAt] = 0 })), 0},
		{"tag without payload bytes", fix(corrupt(noPayload, func(b []byte) { b[tagAt] = testPayloadTag })), 0},
		{"trailing byte on payload-less frame", fix(append(append([]byte(nil), noPayload...), 0xaa)), 0},
		{"payload the type rejects", fix(corrupt(valid, func(b []byte) {
			b[prefixLen+headerLen+4] = 0xff // string longer than the body
		})), 0},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFrame(tc.b, tc.max); err == nil {
			t.Errorf("%s: DecodeFrame accepted malformed input", tc.name)
		}
		if _, err := readOne(tc.b, tc.max); err == nil {
			t.Errorf("%s: FrameReader accepted malformed input", tc.name)
		}
	}
	if _, _, err := DecodeFrame(cases[11].b, 0); !errors.Is(err, ErrUnknownTag) {
		t.Errorf("unknown tag: error %v is not ErrUnknownTag", err)
	}
}

// TestAppendFrameRejectsUncodedPayload: a payload without a codec is an
// encode error naming the type, not a silent drop.
func TestAppendFrameRejectsUncodedPayload(t *testing.T) {
	type plain struct{ X int }
	_, err := AppendFrame(nil, &Frame{Type: frameMsg, Kind: 5, Payload: &plain{1}})
	if err == nil || !strings.Contains(err.Error(), "plain") {
		t.Fatalf("AppendFrame of an uncoded payload: %v", err)
	}
}

func TestRegisterPayloads(t *testing.T) {
	if err := RegisterPayloads([]any{&testPayload{}}); err != nil {
		t.Fatalf("re-registering a type: %v", err)
	}
	if err := RegisterPayloads([]any{42}); err == nil {
		t.Error("an exemplar without a codec was registered")
	}
	if err := RegisterPayloads([]any{&tagThief{}}); err == nil {
		t.Error("a second type took a held tag")
	}
	if err := RegisterPayloads([]any{&tagZero{}}); err == nil {
		t.Error("tag 0 was registered")
	}
}

type tagThief struct{ testPayload }
type tagZero struct{ testPayload }

func (*tagZero) WireTag() uint8 { return 0 }

// fuzzSeeds are valid v4 encodings plus the classic corruptions, and a
// frame for the exemplar of every registered payload type (the
// protocol's, which this package's external tests register).
func fuzzSeeds() [][]byte {
	valid, _ := AppendFrame(nil, &Frame{Type: frameMsg, From: 1, To: 0, Kind: 2, Seq: 3, Size: 12,
		Payload: &testPayload{A: 1, B: "seed", Data: []byte{9, 9}}})
	crcFlip := append([]byte(nil), valid...)
	crcFlip[len(crcFlip)-1] ^= 0xff
	huge := make([]byte, prefixLen+4)
	binary.LittleEndian.PutUint32(huge, 0xfffffff0)
	two, _ := AppendFrame(append([]byte(nil), valid...), &Frame{Type: frameReply, From: 0, To: 1, Kind: 4, Pending: 12})
	bare, _ := AppendFrame(nil, &Frame{Type: frameReply, From: 0, To: 1, Kind: 4, Pending: 12, DropReply: true, Epoch: 7})
	seeds := [][]byte{valid, valid[:len(valid)/2], crcFlip, huge, two, bare}
	for _, p := range payloadTypes.Load() {
		if p != nil {
			b, _ := AppendFrame(nil, &Frame{Type: frameMsg, From: 2, To: 3, Kind: p.WireTag(), Payload: p})
			seeds = append(seeds, b)
		}
	}
	return seeds
}

// FuzzDecodeFrame drives the two decode entry points with arbitrary
// bytes: malformed input must come back as an error — never a panic, and
// never an allocation sized by a corrupted length prefix (the maxFrame
// bound is checked first). An accepted frame re-encodes to the bytes it
// was decoded from. Each input is decoded twice, with no decode state and
// through one state the fuzz worker keeps across its inputs, as a
// FrameReader keeps its own: both give the same frame or the same error.
func FuzzDecodeFrame(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	var state any
	f.Fuzz(func(t *testing.T, b []byte) {
		const maxFrame = 1 << 16
		fr, n, err := DecodeFrame(b, maxFrame)
		sfr, sn, serr := decodeFrame(b, maxFrame, &state)
		if fmt.Sprint(err) != fmt.Sprint(serr) || n != sn || !reflect.DeepEqual(fr, sfr) {
			t.Fatalf("%x decodes to %+v (%d bytes, %v) with no state but %+v (%d bytes, %v) through one",
				b, fr, n, err, sfr, sn, serr)
		}
		if err == nil {
			if fr == nil {
				t.Fatal("nil frame without error")
			}
			if n < prefixLen+headerLen || n > len(b) {
				t.Fatalf("consumed %d of %d bytes", n, len(b))
			}
			if fr.Type != frameMsg && fr.Type != frameReply {
				t.Fatalf("accepted frame type %d", fr.Type)
			}
			// testPayload's string length is a u16, so its encoding is
			// canonical like the protocol's: one byte string per value.
			re, rerr := AppendFrame(nil, fr)
			if rerr != nil || !bytes.Equal(re, b[:n]) {
				t.Fatalf("accepted frame re-encodes differently (err %v):\n in %x\nout %x", rerr, b[:n], re)
			}
		}
		// The streaming path must agree on accept/reject for a
		// single-frame prefix.
		if _, rerr := readOne(b, maxFrame); (rerr == nil) != (err == nil) && n == len(b) {
			t.Fatalf("DecodeFrame err=%v but FrameReader err=%v", err, rerr)
		}
	})
}
