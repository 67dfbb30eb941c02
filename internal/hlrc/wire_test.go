package hlrc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sdsm/internal/memory"
	"sdsm/internal/simtime"
	"sdsm/internal/vclock"
)

// wirePayload is the codec surface every exemplar of WirePayloads has
// (tcp.Payload plus the sizing half).
type wirePayload interface {
	WireTag() uint8
	WireSize() int
	AppendWire(dst []byte) []byte
	DecodeWire(b []byte, state *any) (any, error)
}

// exemplarByTag indexes WirePayloads by tag, as a fabric's decode table
// does.
func exemplarByTag(t testing.TB) map[uint8]wirePayload {
	t.Helper()
	byTag := map[uint8]wirePayload{}
	for _, ex := range WirePayloads() {
		p, ok := ex.(wirePayload)
		if !ok {
			t.Fatalf("exemplar %T has no wire codec", ex)
		}
		if have, dup := byTag[p.WireTag()]; dup {
			t.Fatalf("tag %d claimed by %T and %T", p.WireTag(), have, ex)
		}
		byTag[p.WireTag()] = p
	}
	return byTag
}

func TestWireTagsAreDense(t *testing.T) {
	byTag := exemplarByTag(t)
	for tag := 1; tag <= len(byTag); tag++ {
		if byTag[uint8(tag)] == nil {
			t.Errorf("no payload type holds tag %d of 1..%d", tag, len(byTag))
		}
	}
}

// --- generated values ---

func genVC(r *rand.Rand) vclock.VC {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return vclock.VC{}
	}
	v := make(vclock.VC, 1+r.Intn(8))
	for i := range v {
		v[i] = r.Int31n(1000)
	}
	return v
}

func genNotices(r *rand.Rand) []Notice {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return []Notice{}
	}
	ns := make([]Notice, 1+r.Intn(4))
	for i := range ns {
		ns[i] = Notice{Proc: r.Int31n(8), Seq: r.Int31n(100)}
		switch r.Intn(3) {
		case 0: // nil page list
		case 1:
			ns[i].Pages = []memory.PageID{}
		default:
			ns[i].Pages = make([]memory.PageID, 1+r.Intn(5))
			for j := range ns[i].Pages {
				ns[i].Pages[j] = memory.PageID(r.Int31n(1 << 20))
			}
		}
	}
	return ns
}

// wireRun is one run of a hand-built diff.
type wireRun struct {
	off  int
	data []byte
}

// diffOf decodes the diff with exactly the given runs.
func diffOf(page memory.PageID, runs ...wireRun) memory.Diff {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(page))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(runs)))
	for _, r := range runs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.off))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.data)))
		buf = append(buf, r.data...)
	}
	d, rest, err := memory.DecodeDiff(buf)
	if err != nil || len(rest) != 0 {
		panic(fmt.Sprintf("diffOf: %v, %d bytes left", err, len(rest)))
	}
	return d
}

func genDiff(r *rand.Rand) memory.Diff {
	var runs []wireRun
	off := 0
	for i, n := 0, r.Intn(4); i < n; i++ {
		data := make([]byte, memory.WordSize*(1+r.Intn(16)))
		r.Read(data)
		off += memory.WordSize * r.Intn(8)
		runs = append(runs, wireRun{off, data})
		off += len(data)
	}
	return diffOf(memory.PageID(r.Int31n(1<<20)), runs...)
}

func genDiffs(r *rand.Rand) []memory.Diff {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return []memory.Diff{}
	}
	ds := make([]memory.Diff, 1+r.Intn(4))
	for i := range ds {
		ds[i] = genDiff(r)
	}
	return ds
}

func genData(r *rand.Rand) []byte {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	b := make([]byte, 1+r.Intn(4096))
	r.Read(b)
	return b
}

// optional returns v half of the time, else zero (a field left absent).
func optional(r *rand.Rand, v int64) int64 {
	if r.Intn(2) == 0 {
		return 0
	}
	return v
}

func genLockGrant(r *rand.Rand) *LockGrant {
	return &LockGrant{VT: genVC(r), Notices: genNotices(r), LeaseUntil: simtime.Time(optional(r, 1+r.Int63()))}
}

func genBarrierRelease(r *rand.Rand) *BarrierRelease {
	return &BarrierRelease{VT: genVC(r), Notices: genNotices(r), LeaseUntil: simtime.Time(optional(r, 1+r.Int63()))}
}

// genPayload draws one value of the exemplar's type.
func genPayload(r *rand.Rand, ex any) wirePayload {
	switch ex.(type) {
	case *LockReq:
		return &LockReq{Lock: r.Int31(), VT: genVC(r)}
	case *LockGrant:
		return genLockGrant(r)
	case *LockRelease:
		return &LockRelease{Lock: r.Int31(), VT: genVC(r), Notices: genNotices(r)}
	case *BarrierCheckin:
		return &BarrierCheckin{Barrier: r.Int31(), VT: genVC(r), Notices: genNotices(r)}
	case *BarrierRelease:
		return genBarrierRelease(r)
	case *DiffUpdate:
		return &DiffUpdate{Writer: r.Int31(), Seq: r.Int31(), VTSum: optional(r, 1+r.Int63()), Diffs: genDiffs(r)}
	case DiffAck:
		return DiffAck{}
	case *PageReq:
		return &PageReq{Page: memory.PageID(r.Int31()), VT: genVC(r)}
	case *PageReply:
		return &PageReply{Data: genData(r)}
	case *RecDiffsReq:
		return &RecDiffsReq{Page: memory.PageID(r.Int31()), FromSeq: r.Int31(), ToSeq: r.Int31()}
	case *RecDiffsReply:
		m := &RecDiffsReply{DiskBytes: r.Intn(1 << 30)}
		for i, n := 0, r.Intn(5); i < n; i++ {
			m.Seqs = append(m.Seqs, r.Int31())
			m.VTSums = append(m.VTSums, r.Int63())
			m.Diffs = append(m.Diffs, genDiff(r))
		}
		return m
	case *RecSyncReq:
		return &RecSyncReq{Node: r.Int31(), Idx: r.Int31()}
	case *RecGrantReply:
		if r.Intn(3) == 0 {
			return &RecGrantReply{}
		}
		return &RecGrantReply{Grant: genLockGrant(r)}
	case *RecBarrierReply:
		if r.Intn(3) == 0 {
			return &RecBarrierReply{}
		}
		return &RecBarrierReply{Rel: genBarrierRelease(r)}
	case *Obituary:
		return &Obituary{Node: r.Int31(), At: simtime.Time(r.Int63()), Epoch: r.Int63()}
	case *RedirectHome:
		return &RedirectHome{Page: memory.PageID(r.Int31()), Home: r.Int31()}
	case *Fenced:
		return &Fenced{Node: r.Int31(), MsgEpoch: r.Int63(), Buried: r.Int63(), Epoch: r.Int63()}
	}
	panic(fmt.Sprintf("no generator for %T", ex))
}

// nilEmpty rewrites every empty slice reachable from v to nil, so values
// can be compared up to nil-vs-empty.
func nilEmpty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			nilEmpty(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			nilEmpty(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			if v.CanSet() {
				v.Set(reflect.Zero(v.Type()))
			}
			return
		}
		for i := 0; i < v.Len(); i++ {
			nilEmpty(v.Index(i))
		}
	}
}

// TestWireRoundTrip: for every payload type and a seeded population of
// values — optional fields present and absent, nil and empty vectors,
// 0..n notices with 0..n pages, 0..n diffs with 0..n runs, nil and
// non-nil nested grants — the encoding is exactly WireSize bytes, and
// decoding it gives the value back (up to nil-vs-empty) with bytes of its
// own: with no decode state, and through one state every decode of the
// test shares, as a tcp reader's does.
func TestWireRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	var shared any
	for _, ex := range WirePayloads() {
		for i := 0; i < 300; i++ {
			v := genPayload(r, ex)
			enc := v.AppendWire(nil)
			if len(enc) != v.WireSize() {
				t.Fatalf("%T #%d: encodes to %d bytes, WireSize %d: %+v", v, i, len(enc), v.WireSize(), v)
			}
			// Appending after existing bytes leaves them alone.
			if pre := v.AppendWire([]byte("pre")); !bytes.Equal(pre[:3], []byte("pre")) || !bytes.Equal(pre[3:], enc) {
				t.Fatalf("%T #%d: AppendWire disturbed its prefix", v, i)
			}
			for _, state := range []*any{nil, &shared} {
				wire := append([]byte(nil), enc...)
				got, err := ex.(wirePayload).DecodeWire(wire, state)
				if err != nil {
					t.Fatalf("%T #%d: DecodeWire: %v\nvalue %+v", v, i, err, v)
				}
				for j := range wire {
					wire[j] ^= 0xff // the connection buffer is reused
				}
				if re := got.(wirePayload).AppendWire(nil); !bytes.Equal(re, enc) {
					t.Fatalf("%T #%d: decoded value aliases its input or re-encodes differently", v, i)
				}
				if reflect.TypeOf(got) != reflect.TypeOf(ex) {
					t.Fatalf("%T #%d: decoded as %T", v, i, got)
				}
				want := reflect.ValueOf(v)
				have := reflect.ValueOf(got)
				if want.Kind() == reflect.Pointer {
					nilEmpty(want)
					nilEmpty(have)
					if !reflect.DeepEqual(v, got) {
						t.Fatalf("%T #%d: round trip\n got %+v\nwant %+v", v, i, got, v)
					}
				}
			}
		}
	}
}

// --- malformed bodies ---

// fullValues is one value per type with every optional field present,
// plus the body lengths at which a shorter body is itself a valid
// encoding (an optional tail dropped, a list or byte string ending
// earlier); truncation anywhere else must fail.
func fullValues() []struct {
	v     wirePayload
	valid func(n, full int) bool
} {
	vt := vclock.VC{1, 2, 3, 4}
	ns := []Notice{{Proc: 1, Seq: 2, Pages: []memory.PageID{7, 8}}, {Proc: 2, Seq: 5}}
	d1 := diffOf(3, wireRun{8, make([]byte, 56)})
	d2 := diffOf(4, wireRun{0, []byte{1, 2, 3, 4}}, wireRun{16, []byte{5, 6, 7, 8}})
	grant := &LockGrant{VT: vt, Notices: ns, LeaseUntil: 99}
	rel := &BarrierRelease{VT: vt, Notices: ns, LeaseUntil: 99}
	never := func(int, int) bool { return false }
	leaseOff := func(n, full int) bool { return n == full-8 }
	return []struct {
		v     wirePayload
		valid func(n, full int) bool
	}{
		{&LockReq{Lock: 5, VT: vt}, never},
		{grant, leaseOff},
		{&LockRelease{Lock: 5, VT: vt, Notices: ns}, never},
		{&BarrierCheckin{Barrier: 2, VT: vt, Notices: ns}, never},
		{rel, leaseOff},
		{&DiffUpdate{Writer: 1, Seq: 9, VTSum: 44, Diffs: []memory.Diff{d1, d2}}, func(n, _ int) bool {
			return n == 16 || n == 16+d1.WireSize()
		}},
		{DiffAck{}, never},
		{&PageReq{Page: 6, VT: vt}, func(n, _ int) bool { return n == 8 }},
		{&PageReply{Data: []byte{1, 2, 3, 4, 5}}, func(int, int) bool { return true }},
		{&RecDiffsReq{Page: 6, FromSeq: 1, ToSeq: 4}, never},
		{&RecDiffsReply{Seqs: []int32{1, 2}, VTSums: []int64{10, 20}, Diffs: []memory.Diff{d1, d2}, DiskBytes: 512}, never},
		{&RecSyncReq{Node: 3, Idx: 17}, never},
		{&RecGrantReply{Grant: grant}, leaseOff},
		{&RecBarrierReply{Rel: rel}, leaseOff},
		{&Obituary{Node: 3, At: 1000, Epoch: 4}, never},
		{&RedirectHome{Page: 6, Home: 2}, never},
		{&Fenced{Node: 3, MsgEpoch: 1, Buried: 2, Epoch: 3}, never},
	}
}

// TestWireRejectsTruncationAndTrailing cuts every type's full encoding at
// every length — so at every field boundary and inside every field — and
// appends a byte to it.
func TestWireRejectsTruncationAndTrailing(t *testing.T) {
	full := fullValues()
	if len(full) != len(WirePayloads()) {
		t.Fatalf("%d full values for %d payload types", len(full), len(WirePayloads()))
	}
	for _, tc := range full {
		enc := tc.v.AppendWire(nil)
		for n := 0; n < len(enc); n++ {
			got, err := tc.v.DecodeWire(enc[:n], nil)
			if tc.valid(n, len(enc)) {
				if err != nil {
					t.Errorf("%T cut at %d of %d is a valid shorter value, got %v", tc.v, n, len(enc), err)
				}
				continue
			}
			var we *WireError
			if err == nil || got != nil || !errors.As(err, &we) {
				t.Errorf("%T cut at %d of %d: value %v, error %v (want nil and a *WireError)", tc.v, n, len(enc), got, err)
			}
		}
		switch tc.v.(type) {
		case *PageReply:
			continue // Data runs to the end of the body: more bytes are more data
		}
		if _, err := tc.v.DecodeWire(append(enc[:len(enc):len(enc)], 0), nil); err == nil {
			t.Errorf("%T accepted a trailing byte", tc.v)
		}
	}
}

// TestWireSizeAndAppendAllocateNothing: every simulated send sizes its
// payload and every tcp send appends it into the link's queue, so neither
// may allocate — the walk behind them stays on the stack.
func TestWireSizeAndAppendAllocateNothing(t *testing.T) {
	for _, tc := range fullValues() {
		buf := make([]byte, 0, 4096)
		if allocs := testing.AllocsPerRun(100, func() { tc.v.WireSize() }); allocs != 0 {
			t.Errorf("%T: WireSize makes %v allocations", tc.v, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { buf = tc.v.AppendWire(buf[:0]) }); allocs != 0 {
			t.Errorf("%T: AppendWire into a buffer with room makes %v allocations", tc.v, allocs)
		}
	}
}

// TestWireRejectsHostileCountsAndValues: counts far larger than the body
// fail before anything is sized by them, and the spellings the canonical
// encoding excludes are refused.
func TestWireRejectsHostileCountsAndValues(t *testing.T) {
	le := binary.LittleEndian
	u32 := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = le.AppendUint32(b, v)
		}
		return b
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	emptyVC := []byte{0, 0}
	hugeVC := []byte{0xff, 0xff}
	noNotices := u32(0)
	zero8 := make([]byte, 8)
	cases := []struct {
		name string
		ex   wirePayload
		body []byte
		is   error // nil: any *WireError
	}{
		{"vector count", &LockReq{}, cat(u32(1), hugeVC), nil},
		{"notice count", &LockGrant{}, cat(emptyVC, u32(0xffffffff)), nil},
		{"notice page count", &LockRelease{}, cat(u32(1), emptyVC, u32(1), u32(0, 1, 0xffffffff)), nil},
		{"diff run count", &DiffUpdate{}, cat(u32(1, 1), u32(3, 0xffffffff)), nil},
		{"diff run length", &DiffUpdate{}, cat(u32(1, 1), u32(3, 1), u32(0, 0x7fffffff)), nil},
		{"diff run offset", &DiffUpdate{}, cat(u32(1, 1), u32(3, 1), u32(0x80000000, 0)), nil},
		{"reply entry count", &RecDiffsReply{}, cat(u32(0xffffffff), zero8), ErrWireTruncated},
		{"reply entry count just too large", &RecDiffsReply{}, cat(u32(2), zero8, make([]byte, 39)), ErrWireTruncated},
		{"zero lease spelled out", &LockGrant{}, cat(emptyVC, noNotices, zero8), ErrWireValue},
		{"zero lease spelled out", &BarrierRelease{}, cat(emptyVC, noNotices, zero8), ErrWireValue},
		{"zero VTSum flagged", &DiffUpdate{}, cat(u32(1|vtSumBit, 1), zero8), ErrWireValue},
		{"nonzero ack", DiffAck{}, []byte{0, 0, 0, 0, 0, 0, 0, 1}, ErrWireValue},
		{"reserved page bytes", &PageReq{}, u32(6, 1), ErrWireValue},
		{"reserved page bytes", &PageReq{}, cat(u32(6, 1), emptyVC), ErrWireValue},
		{"reserved page bytes", &RedirectHome{}, u32(6, 1, 2), ErrWireValue},
		{"reserved tail", &RecDiffsReq{}, u32(6, 1, 4, 9), ErrWireValue},
		{"presence word", &RecGrantReply{}, u32(2), ErrWireValue},
		{"presence word", &RecBarrierReply{}, u32(0xffffffff), ErrWireValue},
		{"absent grant with bytes", &RecGrantReply{}, cat(u32(0), emptyVC), ErrWireTrailing},
	}
	for _, tc := range cases {
		got, err := tc.ex.DecodeWire(tc.body, nil)
		var we *WireError
		if err == nil || got != nil || !errors.As(err, &we) {
			t.Errorf("%T %s: value %v, error %v (want nil and a *WireError)", tc.ex, tc.name, got, err)
			continue
		}
		if tc.is != nil && !errors.Is(err, tc.is) {
			t.Errorf("%T %s: error %v, want %v", tc.ex, tc.name, err, tc.is)
		}
		// A hostile count must not size an allocation: a decode of a few
		// bytes allocates a few objects.
		if allocs := testing.AllocsPerRun(10, func() { tc.ex.DecodeWire(tc.body, nil) }); allocs > 8 {
			t.Errorf("%T %s: %v allocations decoding %d hostile bytes", tc.ex, tc.name, allocs, len(tc.body))
		}
	}
}

// FuzzDecodePayload: any body either fails with a *WireError or is the
// canonical encoding of the value it decodes to — WireSize long, and
// re-encoding to the same bytes. Each body is decoded twice, with no
// state and through one state the fuzz worker keeps across its inputs,
// as a tcp reader keeps its slabs: both give the same value or the same
// error.
func FuzzDecodePayload(f *testing.F) {
	byTag := exemplarByTag(f)
	r := rand.New(rand.NewSource(61))
	for _, ex := range WirePayloads() {
		p := ex.(wirePayload)
		f.Add(p.WireTag(), p.AppendWire(nil))
		for i := 0; i < 3; i++ {
			f.Add(p.WireTag(), genPayload(r, ex).AppendWire(nil))
		}
	}
	for _, tc := range fullValues() {
		f.Add(tc.v.WireTag(), tc.v.AppendWire(nil))
	}
	// KindRecPageReply carries a PageReply too, so the recovery page
	// server's reply is seeded as a role of its own: empty, generated, and
	// a whole page.
	recReply := []wirePayload{&PageReply{}}
	for i := 0; i < 3; i++ {
		recReply = append(recReply, genPayload(r, &PageReply{}))
	}
	recReply = append(recReply, &PageReply{Data: make([]byte, 512)})
	for _, p := range recReply {
		f.Add(p.WireTag(), p.AppendWire(nil))
	}
	// A request with no VT for the largest page id.
	f.Add(tagPageReq, (&PageReq{Page: 0x7fffffff}).AppendWire(nil))
	// KindRecPageReq carries a PageReq too, so recovery's versioned fetch
	// is seeded as a role of its own: with a VT, without one (the home
	// serves it all the same), and generated.
	recReq := []wirePayload{&PageReq{Page: 6, VT: vclock.VC{0, 3, 1}}, &PageReq{Page: 6}}
	for i := 0; i < 3; i++ {
		recReq = append(recReq, genPayload(r, &PageReq{}))
	}
	for _, p := range recReq {
		f.Add(p.WireTag(), p.AppendWire(nil))
	}
	var state any
	f.Fuzz(func(t *testing.T, tag uint8, body []byte) {
		ex := byTag[tag]
		if ex == nil {
			return
		}
		got, err := ex.DecodeWire(body, nil)
		slabbed, serr := ex.DecodeWire(body, &state)
		if fmt.Sprint(err) != fmt.Sprint(serr) || !reflect.DeepEqual(got, slabbed) {
			t.Fatalf("%T: %x decodes to %+v (%v) with no state but %+v (%v) through one", ex, body, got, err, slabbed, serr)
		}
		if err != nil {
			var we *WireError
			if got != nil || !errors.As(err, &we) {
				t.Fatalf("%T: value %v with error %v (want nil and a *WireError)", ex, got, err)
			}
			return
		}
		p := got.(wirePayload)
		if reflect.TypeOf(got) != reflect.TypeOf(ex) {
			t.Fatalf("tag %d decoded as %T, want %T", tag, got, ex)
		}
		if re := p.AppendWire(nil); !bytes.Equal(re, body) || p.WireSize() != len(body) {
			t.Fatalf("%T: accepted %x, WireSize %d, re-encodes to %x", ex, body, p.WireSize(), re)
		}
	})
}
