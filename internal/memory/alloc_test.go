package memory

import (
	"math"
	"strings"
	"testing"

	"sdsm/internal/arena"
	"sdsm/internal/racedetect"
)

// Allocation regression tests for the hot-path kernels. MakeDiff on a
// clean page must not allocate at all (every release diffs every dirty
// page, and unmodified rewrites are common), a dirty page costs at most
// its body, and Encode into a sufficiently-sized pooled buffer must stay
// at zero with at most one allocation tolerated for a cold pool.

// skipUnderRace skips an allocation pin when the race detector is on: it
// allocates shadow state and makes sync.Pool drop items at random.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// twinnedTable returns a one-page table whose page reads cur against a
// twin of twin, as a written page does at its release.
func twinnedTable(twin, cur []byte) *PageTable {
	pt := NewPageTable(1, len(cur))
	copy(pt.Page(0), twin)
	pt.MakeTwin(0)
	copy(pt.Page(0), cur)
	return pt
}

func TestMakeDiffCleanPageZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	twin := make([]byte, 4096)
	for i := range twin {
		twin[i] = byte(i)
	}
	pt := twinnedTable(twin, twin)
	for name, diff := range map[string]func() Diff{
		"MakeDiff":           func() Diff { return MakeDiff(0, twin, twin) },
		"PageTable.MakeDiff": func() Diff { return pt.MakeDiff(0) },
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if !diff().Empty() {
				t.Fatal("clean page produced runs")
			}
		})
		if allocs != 0 {
			t.Errorf("%s on clean page: %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// A dirty page costs its run table and nothing else, however many runs
// it has (Shallow's pages carry dozens of 16-byte runs): a page table
// cuts a body of at most half a 512-byte slab block from a block it
// shares with the next bodies, and a larger one of at most 8 KiB from a
// 32 KiB chunk, so a batch of 64 costs only the blocks or chunks their
// bytes fill. The undo entry derived from a diff costs one allocation of
// bitmap plus words. It takes about 0.06 s.
func TestMakeDiffAndInverseOneAllocation(t *testing.T) {
	skipUnderRace(t)
	const batch, block = 64, 512
	for _, density := range []float64{0.001, 0.02, 0.5} {
		twin, cur := benchPage(density)
		pt := twinnedTable(twin, cur)
		d := pt.MakeDiff(0) // sizes the span scratch
		if d.NumRuns() < 2 {
			t.Fatalf("density %v: only %d runs", density, d.NumRuns())
		}
		size := len(d.body)
		want := math.Ceil(batch / float64(bigChunk/size))
		if size <= block/2 {
			want = math.Ceil(batch / float64(block/size))
		}
		a := testing.AllocsPerRun(100, func() {
			for range batch {
				pt.MakeDiff(0)
			}
		})
		if a > want || a == 0 {
			t.Errorf("MakeDiff on a dirty page with %d runs (%d-byte body): %.1f allocs per %d, want 0 < n <= %v",
				d.NumRuns(), size, a, batch, want)
		}
		if a := testing.AllocsPerRun(100, func() { UndoOf(d, twin, nil) }); a != 1 {
			t.Errorf("UndoOf a diff of %d runs: %.1f allocs/op, want 1", d.NumRuns(), a)
		}
		if u, want := UndoOf(d, twin, nil), BitmapLen(len(twin))+d.DataBytes(); u.Size() != want || cap(u.b) != want {
			t.Errorf("UndoOf a diff of %d data bytes: len %d cap %d, want both %d", d.DataBytes(), u.Size(), cap(u.b), want)
		}
		if cap(d.body) != len(d.body) || len(d.body) != d.WireSize()-8 {
			t.Errorf("body len %d cap %d, want both WireSize-8 = %d", len(d.body), cap(d.body), d.WireSize()-8)
		}
	}
}

// Every release and barrier walks the dirty set and ends the interval:
// the cycle reuses the table's own list.
func TestDirtyCycleZeroAllocs(t *testing.T) {
	pt := NewPageTable(64, 64)
	cycle := func() {
		pt.MarkDirty(9)
		pt.MarkDirty(3)
		if got := pt.DirtyPages(); len(got) != 2 || got[0] != 3 || got[1] != 9 {
			t.Fatalf("DirtyPages = %v", got)
		}
		pt.EndInterval()
	}
	cycle() // sizes the list
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("MarkDirty/DirtyPages/EndInterval cycle: %.1f allocs/op, want 0", allocs)
	}
}

func TestEncodePooledBufferAtMostOneAlloc(t *testing.T) {
	twin, cur := benchPage(0.1)
	d := MakeDiff(0, twin, cur)
	size := d.WireSize()
	arena.Put(arena.Get(size)) // warm the pool's size class
	allocs := testing.AllocsPerRun(100, func() {
		buf := arena.Get(size)[:0]
		buf = d.Encode(buf)
		if len(buf) != size {
			t.Fatalf("encoded %d bytes, want %d", len(buf), size)
		}
		arena.Put(buf)
	})
	if allocs > 1 {
		t.Fatalf("Encode with pooled buffer: %.1f allocs/op, want <= 1", allocs)
	}
}

func TestEncodeExactCapacityGrowsOnce(t *testing.T) {
	twin, cur := benchPage(0.1)
	d := MakeDiff(0, twin, cur)
	buf := d.Encode(nil)
	if len(buf) != d.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(buf), d.WireSize())
	}
	if cap(buf) != d.WireSize() {
		t.Fatalf("encode into nil buf got cap %d, want exact %d", cap(buf), d.WireSize())
	}
	// Appending to a prefix must preserve the existing contents.
	pre := []byte{1, 2, 3}
	buf2 := d.Encode(pre)
	if len(buf2) != 3+d.WireSize() || buf2[0] != 1 || buf2[2] != 3 {
		t.Fatalf("encode after prefix mangled the buffer")
	}
}

// Bounds-check negative tests: a decoded diff whose runs stray outside
// the destination page must be rejected before Apply can scribble.

func TestValidateRejectsOutOfBoundsRuns(t *testing.T) {
	cases := []struct {
		name, want string
		d          Diff
	}{
		{"negative offset", "outside", diffOf(1, testRun{-4, make([]byte, 8)})},
		{"overruns page", "outside", diffOf(1, testRun{4090, make([]byte, 8)})},
		{"offset past end", "outside", diffOf(1, testRun{4096, make([]byte, 4)})},
		{"offset inside a word", "whole", diffOf(1, testRun{6, make([]byte, 4)})},
		{"length inside a word", "whole", diffOf(1, testRun{8, make([]byte, 6)})},
	}
	for _, c := range cases {
		if err := c.d.Validate(4096); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, runsOf(c.d)[0])
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
	}
	ok := diffOf(1, testRun{4088, make([]byte, 8)})
	if err := ok.Validate(4096); err != nil {
		t.Errorf("Validate rejected an in-bounds run: %v", err)
	}
}

func TestDecodeDiffRejectsNegativeOffset(t *testing.T) {
	// Hand-craft an encoding with a run at offset 0x80000000 (negative
	// as int32).
	good := diffOf(0, testRun{0, []byte{1, 2, 3, 4}})
	buf := good.Encode(nil)
	// Run offset lives at bytes 8..12.
	buf[11] = 0x80
	if _, _, err := DecodeDiff(buf); err == nil {
		t.Fatal("DecodeDiff accepted a negative run offset")
	}
}

func TestDecodeDiffRejectsInt32Overflow(t *testing.T) {
	// Offset + length overflowing int32 must fail even though each field
	// alone looks plausible.
	good := diffOf(0, testRun{0, []byte{1, 2, 3, 4}})
	buf := good.Encode(nil)
	buf[8], buf[9], buf[10], buf[11] = 0xfc, 0xff, 0xff, 0x7f // off = MaxInt32-3
	if _, _, err := DecodeDiff(buf); err == nil {
		t.Fatal("DecodeDiff accepted an offset+len overflowing int32")
	}
}
