package tcp_test

import (
	"reflect"
	"testing"

	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/transport/tcp"
	"sdsm/internal/vclock"
)

// The protocol's real payloads through the frame codec. (tcp itself must
// not import hlrc; this external test package may.)

func init() {
	if err := tcp.RegisterPayloads(hlrc.WirePayloads()); err != nil {
		panic(err)
	}
}

// kvDiff is the diff of one kv write: a single 56-byte run.
func kvDiff() memory.Diff {
	twin, cur := make([]byte, 128), make([]byte, 128)
	for i := 64; i < 120; i++ {
		cur[i] = 1
	}
	return memory.MakeDiff(3, twin, cur)
}

var (
	kvVT      = vclock.VC{9, 4, 7, 2}
	kvNotices = []hlrc.Notice{{Proc: 1, Seq: 4, Pages: []memory.PageID{3}}}

	lockReq     = &hlrc.LockReq{Lock: 5, VT: kvVT}
	lockGrant   = &hlrc.LockGrant{VT: kvVT, Notices: kvNotices}
	lockRelease = &hlrc.LockRelease{Lock: 5, VT: kvVT, Notices: kvNotices}
	diffUpdate  = &hlrc.DiffUpdate{Writer: 2, Seq: 4, Diffs: []memory.Diff{kvDiff()}}
	pageReply   = &hlrc.PageReply{Data: make([]byte, 4096)}
)

func sized(p interface{ WireSize() int }) int32 { return int32(p.WireSize()) }

// TestFrameKindNeedNotMatchPayload: decode goes by the payload tag, so a
// frame round-trips whatever its kind says — a reply's kind is the
// responder's choice, and the benchmark's codec probe numbers its frames
// 1..n over WirePayloads with a fixed Size.
func TestFrameKindNeedNotMatchPayload(t *testing.T) {
	for i, p := range hlrc.WirePayloads() {
		for _, kind := range []uint8{uint8(i + 1), 0, 255} {
			in := &tcp.Frame{Type: 1, From: 0, To: 1, Kind: kind, Seq: int64(i), Size: 64, Epoch: 1, Payload: p}
			enc, err := tcp.AppendFrame(nil, in)
			if err != nil {
				t.Fatalf("%T as kind %d: AppendFrame: %v", p, kind, err)
			}
			out, n, err := tcp.DecodeFrame(enc, tcp.DefaultMaxFrame)
			if err != nil || n != len(enc) {
				t.Fatalf("%T as kind %d: DecodeFrame consumed %d of %d: %v", p, kind, n, len(enc), err)
			}
			if out.Kind != kind || out.Size != 64 || reflect.TypeOf(out.Payload) != reflect.TypeOf(p) {
				t.Fatalf("%T as kind %d: decoded kind %d size %d payload %T", p, kind, out.Kind, out.Size, out.Payload)
			}
		}
	}
}

// TestAppendFrameAllocatesNothing: encoding into a warm buffer is free
// for every payload type.
func TestAppendFrameAllocatesNothing(t *testing.T) {
	payloads := append(hlrc.WirePayloads(), lockReq, lockGrant, lockRelease, diffUpdate, pageReply)
	buf := make([]byte, 0, 16<<10)
	for _, p := range payloads {
		f := &tcp.Frame{Type: 1, To: 1, Kind: 1, Payload: p}
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if buf, err = tcp.AppendFrame(buf[:0], f); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("AppendFrame of %T into a warm buffer: %v allocs, want 0", p, allocs)
		}
	}
}

// TestDecodeFrameAllocations pins the objects a decoded frame costs: the
// frame, the payload struct, and one per slice the payload owns.
func TestDecodeFrameAllocations(t *testing.T) {
	for _, tc := range []struct {
		p    any
		want float64
		what string
	}{
		{lockReq, 3, "frame, LockReq, VT"},
		{lockGrant, 5, "frame, LockGrant, VT, notice list, one page list"},
		{lockRelease, 5, "frame, LockRelease, VT, notice list, one page list"},
		{diffUpdate, 4, "frame, DiffUpdate, diff list, run table"},
	} {
		enc, err := tcp.AppendFrame(nil, &tcp.Frame{Type: 1, To: 1, Kind: 1, Payload: tc.p})
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := tcp.DecodeFrame(enc, tcp.DefaultMaxFrame); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != tc.want {
			t.Errorf("DecodeFrame of %T: %v allocs, want %v (%s)", tc.p, allocs, tc.want, tc.what)
		}
	}
}

var (
	sinkBytes []byte
	sinkFrame *tcp.Frame
)

// benchFrames are the two shapes the wire carries: the small messages of
// a kv transaction and a page reply.
var benchFrames = []struct {
	name   string
	frames []*tcp.Frame
}{
	{"kv", []*tcp.Frame{
		{Type: 1, To: 1, Kind: uint8(hlrc.KindLockReq), Size: sized(lockReq), Payload: lockReq},
		{Type: 2, To: 0, Kind: uint8(hlrc.KindLockGrant), Size: sized(lockGrant), Payload: lockGrant},
		{Type: 1, To: 1, Kind: uint8(hlrc.KindDiffUpdate), Size: sized(diffUpdate), Payload: diffUpdate},
		{Type: 2, To: 0, Kind: uint8(hlrc.KindDiffAck), Size: sized(hlrc.DiffAck{}), Payload: hlrc.DiffAck{}},
		{Type: 1, To: 1, Kind: uint8(hlrc.KindLockRelease), Size: sized(lockRelease), Payload: lockRelease},
	}},
	{"page", []*tcp.Frame{
		{Type: 2, To: 0, Kind: uint8(hlrc.KindPageReply), Size: sized(pageReply), Payload: pageReply},
	}},
}

func BenchmarkAppendFrame(b *testing.B) {
	for _, shape := range benchFrames {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = tcp.AppendFrame(buf[:0], shape.frames[i%len(shape.frames)]); err != nil {
					b.Fatal(err)
				}
			}
			sinkBytes = buf
		})
	}
}

func BenchmarkDecodeFrame(b *testing.B) {
	for _, shape := range benchFrames {
		b.Run(shape.name, func(b *testing.B) {
			encoded := make([][]byte, len(shape.frames))
			for i, f := range shape.frames {
				var err error
				if encoded[i], err = tcp.AppendFrame(nil, f); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, _, err := tcp.DecodeFrame(encoded[i%len(encoded)], tcp.DefaultMaxFrame)
				if err != nil {
					b.Fatal(err)
				}
				sinkFrame = f
			}
		})
	}
}
