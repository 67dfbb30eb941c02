package memory

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

func newPT(t *testing.T) *PageTable {
	t.Helper()
	return NewPageTable(4, 64)
}

func TestNewPageTableInitialState(t *testing.T) {
	pt := newPT(t)
	if pt.NumPages() != 4 || pt.PageSize() != 64 || pt.Bytes() != 256 {
		t.Fatal("geometry wrong")
	}
	for i := 0; i < 4; i++ {
		id := PageID(i)
		if pt.State(id) != ReadOnly {
			t.Fatalf("page %d initial state %v", i, pt.State(id))
		}
		if pt.HasTwin(id) || pt.IsDirty(id) {
			t.Fatalf("page %d has twin/dirty initially", i)
		}
		for _, b := range pt.Page(id) {
			if b != 0 {
				t.Fatal("pages must start zeroed")
			}
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, g := range [][2]int{{0, 64}, {4, 0}, {4, 63}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("geometry %v must panic", g)
				}
			}()
			NewPageTable(g[0], g[1])
		}()
	}
}

func TestTwinLifecycle(t *testing.T) {
	pt := newPT(t)
	p := pt.Page(1)
	p[0] = 42
	pt.MakeTwin(1)
	if !pt.HasTwin(1) {
		t.Fatal("twin missing")
	}
	p[0] = 99
	p[16] = 7 // non-adjacent word: separate run
	d := pt.MakeDiff(1)
	if d.NumRuns() != 2 {
		t.Fatalf("diff runs = %d, want 2", d.NumRuns())
	}
	if runsOf(d)[0].data[0] != 99 {
		t.Fatal("diff captured twin value, not current")
	}
	pt.DropTwin(1)
	if pt.HasTwin(1) {
		t.Fatal("twin not dropped")
	}
}

// TestPageTableDiffBodies checks the bodies a page table cuts, both the
// one-word bodies it cuts from its 512-byte slab blocks and the
// full-page ones it cuts from its 32 KiB chunks: each has cap == len, so
// appending to one reallocates instead of reaching the next; writing one
// changes no other; and a reader handed each diff as it is made reads it
// as made while the maker cuts the next bodies from the same block or
// chunk, as a home's service loop reads a writer's diffs (make tier2 runs
// this under -race). Under 0.01 s.
func TestPageTableDiffBodies(t *testing.T) {
	const pages = 4
	t.Run("word", func(t *testing.T) {
		testDiffBodies(t, 64, func(r int, p PageID) (int, []byte) {
			return 4 * (r % 16), binary.LittleEndian.AppendUint32(nil, uint32(r<<8|int(p)+1))
		})
	})
	t.Run("full page", func(t *testing.T) {
		// Each round moves every byte of the page on by pages, so the
		// whole page is one run.
		testDiffBodies(t, 4096, func(r int, p PageID) (int, []byte) {
			return 0, bytes.Repeat([]byte{byte(r*pages + int(p) + 1)}, 4096)
		})
	})
}

// testDiffBodies runs TestPageTableDiffBodies on four pages of pageSize
// bytes for 64 rounds: in round r page p's write is data at off, whose
// bytes all differ from what the page held, so its diff is that one run.
func testDiffBodies(t *testing.T, pageSize int, write func(r int, p PageID) (off int, data []byte)) {
	const pages, rounds = 4, 64
	pt := NewPageTable(pages, pageSize)
	ch := make(chan Diff, 8) // the maker runs ahead: reads overlap later cuts of a block
	done := make(chan error)
	go func() {
		var err error
		for i := 0; ; i++ {
			d, ok := <-ch
			if !ok {
				done <- err
				return
			}
			off, data := write(i/pages, PageID(i%pages))
			if got := runsOf(d); err == nil && (len(got) != 1 || got[0].off != off || !bytes.Equal(got[0].data, data)) {
				err = fmt.Errorf("diff %d read back as %d runs, want %d bytes at %d", i, len(got), len(data), off)
			}
		}
	}()
	var made []Diff
	for r := range rounds {
		for p := range PageID(pages) {
			pt.MakeTwin(p)
			off, data := write(r, p)
			copy(pt.Page(p)[off:], data)
			pt.MarkDirty(p)
			d := pt.MakeDiff(p)
			if len(d.body) != d.WireSize()-8 || cap(d.body) != len(d.body) {
				t.Fatalf("body len %d cap %d, want both %d", len(d.body), cap(d.body), d.WireSize()-8)
			}
			made = append(made, d)
			ch <- d
		}
		pt.EndInterval()
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Each body filled with its own mark, in order: one that shared a
	// byte with a later one would lose part of its mark.
	for i, d := range made {
		for j := range d.body {
			d.body[j] = byte(i)
		}
	}
	for i, d := range made {
		if bytes.Count(d.body, []byte{byte(i)}) != len(d.body) {
			t.Fatalf("diff %d shares bytes with another", i)
		}
	}
}

func TestDoubleTwinPanics(t *testing.T) {
	pt := newPT(t)
	pt.MakeTwin(0)
	defer func() {
		if recover() == nil {
			t.Fatal("second MakeTwin must panic")
		}
	}()
	pt.MakeTwin(0)
}

func TestDiffWithoutTwinPanics(t *testing.T) {
	pt := newPT(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MakeDiff without twin must panic")
		}
	}()
	pt.MakeDiff(2)
}

func TestDirtyTracking(t *testing.T) {
	pt := newPT(t)
	pt.MarkDirty(2)
	pt.MarkDirty(0)
	got := pt.DirtyPages()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("DirtyPages = %v", got)
	}
	if !pt.IsDirty(0) || !pt.IsDirty(2) || pt.IsDirty(1) {
		t.Fatal("IsDirty wrong")
	}
	pt.MakeTwin(2)
	pt.EndInterval()
	if len(pt.DirtyPages()) != 0 || pt.HasTwin(2) {
		t.Fatal("EndInterval must clear dirty bits and twins")
	}
}

func TestInstallAndInvalidate(t *testing.T) {
	pt := newPT(t)
	data := make([]byte, 64)
	data[10] = 123
	pt.Invalidate(3)
	if pt.State(3) != Invalid {
		t.Fatal("Invalidate")
	}
	pt.Install(3, data)
	if pt.State(3) != ReadOnly || pt.Page(3)[10] != 123 {
		t.Fatal("Install")
	}
}

func TestInstallSizeMismatchPanics(t *testing.T) {
	pt := newPT(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Install with bad size must panic")
		}
	}()
	pt.Install(0, make([]byte, 5))
}

func TestSnapshotRestore(t *testing.T) {
	pt := newPT(t)
	pt.Page(0)[0] = 11
	pt.Page(3)[63] = 22
	snap, changed := pt.Snapshot(nil)
	if changed != pt.NumPages() {
		t.Fatalf("first snapshot counts %d changed pages, want all %d", changed, pt.NumPages())
	}
	pt.Page(0)[0] = 0
	pt.MakeTwin(1)
	pt.MarkDirty(1)
	pt.Invalidate(2)
	pt.Restore(snap)
	if pt.Page(0)[0] != 11 || pt.Page(3)[63] != 22 {
		t.Fatal("restore lost data")
	}
	if pt.State(2) != ReadOnly || pt.HasTwin(1) || pt.IsDirty(1) {
		t.Fatal("restore must reset protocol state")
	}
	// The image holds copies, and Restore copies out of it: table and
	// image never share a frame in either direction.
	pt.Page(0)[0] = 77
	if snap[0][0] != 11 {
		t.Fatal("snapshot aliases the table")
	}
}

func TestRestoreSizeMismatchPanics(t *testing.T) {
	pt := newPT(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Restore with bad size must panic")
		}
	}()
	pt.Restore(make([][]byte, 3))
}

func TestPageOf(t *testing.T) {
	pt := newPT(t)
	for _, tc := range []struct {
		addr int
		page PageID
		off  int
	}{{0, 0, 0}, {63, 0, 63}, {64, 1, 0}, {200, 3, 8}} {
		p, o := pt.PageOf(tc.addr)
		if p != tc.page || o != tc.off {
			t.Fatalf("PageOf(%d) = (%d,%d), want (%d,%d)", tc.addr, p, o, tc.page, tc.off)
		}
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "invalid" || ReadOnly.String() != "read-only" || Writable.String() != "writable" {
		t.Fatal("State.String")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state string empty")
	}
}

func TestPageSliceBounds(t *testing.T) {
	pt := newPT(t)
	p := pt.Page(1)
	if len(p) != 64 || cap(p) != 64 {
		t.Fatalf("page slice len/cap = %d/%d", len(p), cap(p))
	}
	// Writing through the slice lands in the backing store.
	p[0] = 9
	if image(pt)[64] != 9 {
		t.Fatal("page slice does not alias backing store")
	}
	if !bytes.Equal(pt.Page(1), p) {
		t.Fatal("Page not stable")
	}
}

// framesTouched counts the pages that hold a frame.
func framesTouched(pt *PageTable) int {
	n := 0
	for _, f := range pt.frames {
		if f != nil {
			n++
		}
	}
	return n
}

// image flattens the table into one contiguous copy without touching it.
func image(pt *PageTable) []byte {
	s := make([]byte, pt.Bytes())
	for i, f := range pt.frames {
		copy(s[i*pt.pageSize:], f)
	}
	return s
}

func TestUntouchedTableSnapshotIsZeros(t *testing.T) {
	pt := newPT(t)
	snap, _ := pt.Snapshot(nil)
	if len(snap) != pt.NumPages() {
		t.Fatalf("snapshot has %d frames, want %d", len(snap), pt.NumPages())
	}
	for i, f := range snap {
		if f != nil {
			t.Fatalf("snapshot of an untouched table holds a frame for page %d", i)
		}
	}
	if framesTouched(pt) != 0 {
		t.Fatal("Snapshot must not touch pages")
	}
}

func TestRestoreSnapshotRoundTripKeepsZeroPagesUntouched(t *testing.T) {
	src := newPT(t)
	src.Page(1)[5] = 9
	src.Page(3)[63] = 22
	snap, _ := src.Snapshot(nil)

	pt := newPT(t)
	pt.Restore(snap)
	if framesTouched(pt) != 2 {
		t.Fatalf("restore touched %d pages, want the 2 that are not zero", framesTouched(pt))
	}
	if !bytes.Equal(image(pt), image(src)) {
		t.Fatal("Restore of a Snapshot does not round-trip")
	}
	// A page touched before the restore is overwritten, zeros included.
	pt.Page(0)[0] = 7
	pt.Restore(snap)
	if pt.Page(0)[0] != 0 || !bytes.Equal(image(pt), image(src)) {
		t.Fatal("Restore left stale bytes in a touched page")
	}
}

// fullRestore is the reference the sparse path is checked against: the
// old contiguous image, copied page by page over every frame.
func fullRestore(pt *PageTable, img []byte) {
	pt.EndInterval()
	for i := 0; i < pt.numPages; i++ {
		copy(pt.Page(PageID(i)), img[i*pt.pageSize:])
		pt.state[i] = ReadOnly
	}
}

// Restoring from a sparse image equals restoring from the full one on
// touched, untouched and re-zeroed pages, whatever the target held; the
// changed-page count is the number of pages whose bytes differ; and a
// frame two snapshots share is never written through.
func TestSparseSnapshotMatchesFullImage(t *testing.T) {
	src := newPT(t) // 4 pages of 64 bytes
	src.Page(0)[3] = 1
	src.Page(1)[9] = 2
	first, changed := src.Snapshot(nil)
	if changed != 4 {
		t.Fatalf("first snapshot: %d changed pages, want 4 (the full image)", changed)
	}
	if first[0] == nil || first[1] == nil || first[2] != nil || first[3] != nil {
		t.Fatalf("first image frames = %v, want pages 0 and 1 only", first)
	}

	src.Page(1)[9] = 0  // re-zeroed
	src.Page(2)[0] = 0  // touched, still zero
	src.Page(3)[5] = 44 // first write
	second, changed := src.Snapshot(first)
	if changed != 2 {
		t.Fatalf("second snapshot: %d changed pages, want 2 (page 1 re-zeroed, page 3 written)", changed)
	}
	if &second[0][0] != &first[0][0] {
		t.Fatal("unchanged page 0 must share the previous image's frame")
	}
	if second[1] != nil || second[2] != nil || second[3] == nil {
		t.Fatalf("second image frames = %v, want pages 0 and 3 only", second)
	}
	third, changed := src.Snapshot(second)
	if changed != 0 || &third[3][0] != &second[3][0] {
		t.Fatalf("snapshot of an unchanged table: %d changed pages, frame shared %v", changed, &third[3][0] == &second[3][0])
	}
	full := image(src)

	// Targets: fresh, and one dirty everywhere with protocol state set.
	busy := newPT(t)
	for p := 0; p < 4; p++ {
		for i := range busy.Page(PageID(p)) {
			busy.Page(PageID(p))[i] = 0xee
		}
	}
	busy.MakeTwin(2)
	busy.MarkDirty(2)
	for name, target := range map[string]*PageTable{"fresh": newPT(t), "busy": busy} {
		ref := newPT(t)
		fullRestore(ref, full)
		target.Restore(second)
		if !bytes.Equal(image(target), image(ref)) {
			t.Errorf("%s: sparse restore differs from full-image restore", name)
		}
		if target.HasTwin(2) || target.IsDirty(2) || target.State(2) != ReadOnly {
			t.Errorf("%s: restore left protocol state behind", name)
		}
		// Writing the restored table must not reach any image.
		target.Page(0)[3] = 99
		target.Page(3)[5] = 99
	}
	src.Page(0)[3] = 98
	if first[0][3] != 1 || second[0][3] != 1 || second[3][5] != 44 {
		t.Fatal("a write to a table went through to a stored image frame")
	}
}

func TestInstallFirstTouchThenTwinAndDiff(t *testing.T) {
	pt := newPT(t)
	data := make([]byte, 64)
	data[8] = 5
	pt.Install(2, data) // first touch of page 2 is the install itself
	pt.MakeTwin(2)
	pt.Page(2)[8] = 6
	pt.Page(2)[40] = 1
	d := pt.MakeDiff(2)
	if got := runsOf(d); len(got) != 2 || got[0].off != 8 || got[0].data[0] != 6 || got[1].off != 40 {
		t.Fatalf("diff against the installed image = %+v", got)
	}
	if pt.Twin(2)[8] != 5 {
		t.Fatal("twin does not hold the installed image")
	}
	// Twin and diff of a page nobody touched: the image is zeros.
	pt.MakeTwin(1)
	if !pt.MakeDiff(1).Empty() || !allZero(pt.Twin(1)) {
		t.Fatal("untouched page must twin as zeros")
	}
}

func TestDirtyPagesAscendingAcrossIntervals(t *testing.T) {
	pt := NewPageTable(8, 64)
	for _, id := range []PageID{5, 1, 7, 1, 3} {
		pt.MarkDirty(id)
	}
	if got := pt.DirtyPages(); !slices.Equal(got, []PageID{1, 3, 5, 7}) {
		t.Fatalf("DirtyPages = %v", got)
	}
	pt.MarkDirty(0) // after a sort, a smaller id must still come out first
	if got := pt.DirtyPages(); !slices.Equal(got, []PageID{0, 1, 3, 5, 7}) {
		t.Fatalf("DirtyPages after a later mark = %v", got)
	}
	pt.EndInterval()
	pt.MarkDirty(4)
	pt.MarkDirty(2)
	if got := pt.DirtyPages(); !slices.Equal(got, []PageID{2, 4}) {
		t.Fatalf("DirtyPages in the next interval = %v", got)
	}
	for id := 0; id < 8; id++ {
		if pt.IsDirty(PageID(id)) != (id == 2 || id == 4) {
			t.Fatalf("dirty bit of page %d disagrees with the list", id)
		}
	}
}

// A nil image entry zeroes a page's frame in place: every frame slot keeps
// the buffer it held (a home frame cut from a slab stays in the slab).
func TestRestoreZeroesExistingFrameInPlace(t *testing.T) {
	pt := newPT(t)
	pt.AllocFrames([]PageID{1})
	f := pt.Frame(1)
	f[0], f[63] = 5, 6
	pt.Restore(make([][]byte, pt.NumPages()))
	if g := pt.Frame(1); &g[0] != &f[0] || !allZero(g) {
		t.Fatal("Restore of a nil entry must zero the existing frame in place")
	}
	if framesTouched(pt) != 1 {
		t.Fatalf("Restore of an all-zero image gave %d pages a frame, want only the 1 that had one", framesTouched(pt))
	}
}

// AllocFrames cuts zeroed, distinct frames out of one slab, each capped at
// its page so an append reallocates instead of spilling into a neighbour.
func TestAllocFramesSlab(t *testing.T) {
	pt := NewPageTable(6, 64)
	ids := []PageID{0, 2, 3, 5}
	pt.AllocFrames(ids)
	if framesTouched(pt) != len(ids) || pt.Frame(1) != nil || pt.Frame(4) != nil {
		t.Fatalf("AllocFrames(%v) gave %d pages a frame", ids, framesTouched(pt))
	}
	for _, id := range ids {
		f := pt.Frame(id)
		if len(f) != 64 || cap(f) != 64 || !allZero(f) {
			t.Fatalf("frame %d: len %d cap %d zero %v, want a zeroed 64-byte frame capped at 64", id, len(f), cap(f), allZero(f))
		}
		if &pt.Page(id)[0] != &f[0] {
			t.Fatal("Page must return the slab frame, not allocate another")
		}
		for i := range f {
			f[i] = byte(id) + 1
		}
	}
	_ = append(pt.Frame(2), 0xff)
	for _, id := range ids {
		for _, b := range pt.Frame(id) {
			if b != byte(id)+1 {
				t.Fatalf("frame %d holds %d: frames overlap or an append spilled", id, b)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AllocFrames of a page that has a frame must panic")
		}
	}()
	pt.AllocFrames([]PageID{1, 3})
}

// allZero compares a block at a time; it must agree with the byte loop it
// replaced wherever the one non-zero byte sits, on pages that are and are
// not a multiple of the block.
func TestAllZeroMatchesByteLoop(t *testing.T) {
	byteLoop := func(b []byte) bool {
		for _, v := range b {
			if v != 0 {
				return false
			}
		}
		return true
	}
	for _, size := range []int{8, 64, len(zeroBlock), 3000, 4096} {
		b := make([]byte, size)
		if !allZero(b) {
			t.Fatalf("size %d: all-zero page reported non-zero", size)
		}
		for _, at := range []int{0, size / 2, size - 1} {
			b[at] = 1
			if allZero(b) != byteLoop(b) {
				t.Fatalf("size %d: non-zero byte at %d: allZero %v, byte loop %v", size, at, allZero(b), byteLoop(b))
			}
			b[at] = 0
		}
	}
}
