package memory

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// testRun is one run as the tests spell it out.
type testRun struct {
	off  int
	data []byte
}

// runsOf collects a diff's runs through the iterator.
func runsOf(d Diff) []testRun {
	var out []testRun
	for r := d.Runs(); r.Valid(); r.Next() {
		out = append(out, testRun{r.Off(), r.Data()})
	}
	return out
}

// diffOf lays a run table out by hand, offsets unchecked, for the cases
// MakeDiff and DecodeDiff can never produce.
func diffOf(page PageID, runs ...testRun) Diff {
	d := Diff{Page: page, runs: int32(len(runs))}
	for _, r := range runs {
		d.body = binary.LittleEndian.AppendUint32(d.body, uint32(r.off))
		d.body = binary.LittleEndian.AppendUint32(d.body, uint32(len(r.data)))
		d.body = append(d.body, r.data...)
	}
	return d
}

func TestMakeDiffEmpty(t *testing.T) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	d := MakeDiff(3, twin, cur)
	if !d.Empty() || d.Page != 3 {
		t.Fatalf("diff of identical pages: %+v", d)
	}
	if d.DataBytes() != 0 {
		t.Fatal("empty diff carries bytes")
	}
}

func TestMakeDiffSingleWord(t *testing.T) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	cur[8] = 0xff
	d := MakeDiff(0, twin, cur)
	if d.NumRuns() != 1 {
		t.Fatalf("runs = %d, want 1", d.NumRuns())
	}
	r := runsOf(d)[0]
	if r.off != 8 || len(r.data) != WordSize {
		t.Fatalf("run = off %d len %d", r.off, len(r.data))
	}
}

func TestMakeDiffCoalescesAdjacentWords(t *testing.T) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	for i := 4; i < 16; i++ {
		cur[i] = byte(i)
	}
	d := MakeDiff(0, twin, cur)
	if d.NumRuns() != 1 {
		t.Fatalf("adjacent modified words must coalesce, got %d runs", d.NumRuns())
	}
	if r := runsOf(d)[0]; r.off != 4 || len(r.data) != 12 {
		t.Fatalf("run = %+v", r)
	}
}

func TestMakeDiffSeparateRuns(t *testing.T) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	cur[0] = 1
	cur[32] = 2
	d := MakeDiff(0, twin, cur)
	if d.NumRuns() != 2 || len(runsOf(d)) != 2 {
		t.Fatalf("runs = %d (iterator: %d), want 2", d.NumRuns(), len(runsOf(d)))
	}
}

func TestMakeDiffSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	MakeDiff(0, make([]byte, 8), make([]byte, 16))
}

// The fundamental diff invariant: apply(twin, diff(twin, cur)) == cur.
func TestDiffRoundTripProperty(t *testing.T) {
	f := func(seed int64, nMods uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 256
		twin := make([]byte, size)
		rng.Read(twin)
		cur := make([]byte, size)
		copy(cur, twin)
		for i := 0; i < int(nMods); i++ {
			cur[rng.Intn(size)] = byte(rng.Int())
		}
		d := MakeDiff(1, twin, cur)
		rebuilt := make([]byte, size)
		copy(rebuilt, twin)
		d.Apply(rebuilt)
		return bytes.Equal(rebuilt, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Encode/Decode round trip, and WireSize matches the encoding length.
func TestDiffEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64, nMods uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 128
		twin := make([]byte, size)
		cur := make([]byte, size)
		rng.Read(cur)
		for i := 0; i < int(nMods); i++ {
			cur[rng.Intn(size)] = twin[rng.Intn(size)]
		}
		d := MakeDiff(7, twin, cur)
		buf := d.Encode(nil)
		if len(buf) != d.WireSize() {
			return false
		}
		got, rest, err := DecodeDiff(buf)
		if err != nil || len(rest) != 0 || got.Page != d.Page || got.NumRuns() != d.NumRuns() {
			return false
		}
		rebuilt := make([]byte, size)
		copy(rebuilt, twin)
		got.Apply(rebuilt)
		return bytes.Equal(rebuilt, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDiffErrors(t *testing.T) {
	if _, _, err := DecodeDiff([]byte{1, 2}); err == nil {
		t.Fatal("short header must fail")
	}
	twin := make([]byte, 32)
	cur := make([]byte, 32)
	cur[0] = 9
	d := MakeDiff(0, twin, cur)
	buf := d.Encode(nil)
	if _, _, err := DecodeDiff(buf[:9]); err == nil {
		t.Fatal("short run header must fail")
	}
	if _, _, err := DecodeDiff(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated payload must fail")
	}
}

// A diff owns its bytes: neither the page it was made from nor the
// buffer it was decoded from can change it afterwards.
func TestMakeDiffDoesNotAliasPage(t *testing.T) {
	twin := make([]byte, 16)
	cur := make([]byte, 16)
	cur[0] = 5
	d := MakeDiff(0, twin, cur)
	cur[0] = 99 // mutate the source page
	if runsOf(d)[0].data[0] != 5 {
		t.Fatal("diff aliases the source page")
	}
	buf := d.Encode(nil)
	dec, _, err := DecodeDiff(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xff // recycle the wire buffer
	}
	if got := runsOf(dec); len(got) != 1 || got[0].off != 0 || got[0].data[0] != 5 {
		t.Fatalf("decoded diff aliases the wire buffer: %+v", got)
	}
}

// The backwards diff restores the twin, and the undo entry the XOR pass
// builds from (cur, twin) is byte for byte the one UndoOf derives from the
// forward diff and the twin: both mark exactly the changed words.
func TestBackwardDiffRestoresTwin(t *testing.T) {
	f := func(seed int64, nMods uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 256
		twin := make([]byte, size)
		rng.Read(twin)
		cur := bytes.Clone(twin)
		for i := 0; i < int(nMods); i++ {
			cur[rng.Intn(size)] = byte(rng.Int())
		}
		fwd, back := MakeDiff(4, twin, cur), MakeDiff(4, cur, twin)
		work := bytes.Clone(twin)
		fwd.Apply(work)
		if !bytes.Equal(work, cur) {
			return false
		}
		back.Apply(work)
		if !bytes.Equal(work, twin) {
			return false
		}
		u := UndoFromTwin(cur, twin, nil)
		work = bytes.Clone(cur)
		u.Restore(work, make([]byte, BitmapLen(size)))
		return bytes.Equal(work, twin) && bytes.Equal(u.b, UndoOf(fwd, twin, nil).b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDiffWireSizeAccountsRuns(t *testing.T) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	cur[0] = 1
	cur[32] = 1
	d := MakeDiff(0, twin, cur)
	want := 8 + 2*8 + d.DataBytes()
	if d.WireSize() != want || d.DataBytes() != 2*WordSize {
		t.Fatalf("WireSize = %d, want %d (DataBytes %d)", d.WireSize(), want, d.DataBytes())
	}
}
