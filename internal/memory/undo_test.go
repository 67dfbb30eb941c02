package memory

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Applying a diff and then its undo entry restores the base page.
func TestUndoOfDiffRestoresBase(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 128
		base := make([]byte, size)
		rng.Read(base)
		cur := bytes.Clone(base)
		for i := 0; i < 10; i++ {
			cur[rng.Intn(size)] = byte(rng.Int())
		}
		d := MakeDiff(0, base, cur)
		u := UndoOf(d, base, nil)
		work := bytes.Clone(base)
		d.Apply(work)
		u.Restore(work, make([]byte, BitmapLen(size)))
		return bytes.Equal(work, base) && u.Empty() == d.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Restoring a history oldest first over one coverage bitmap equals
// applying every entry newest first with no bitmap, on page sizes whose
// bitmaps end mid-chunk (64 and 200 bytes) as well as whole ones.
func TestUndoRestoreOldestFirstMatchesNewestFirst(t *testing.T) {
	for _, size := range []int{64, 200, 4096} {
		rng := rand.New(rand.NewSource(int64(size)))
		for trial := 0; trial < 50; trial++ {
			page := make([]byte, size)
			rng.Read(page)
			type step struct {
				base []byte
				d    Diff
				u    Undo
			}
			var hist []step
			for i := 0; i < 1+rng.Intn(8); i++ {
				next := bytes.Clone(page)
				start, n := rng.Intn(size/WordSize), rng.Intn(size/WordSize)
				for w := start; w < min(start+n, size/WordSize); w += 1 + rng.Intn(3) {
					next[w*WordSize+rng.Intn(WordSize)] ^= byte(1 + rng.Intn(255))
				}
				d := MakeDiff(0, page, next)
				hist = append(hist, step{bytes.Clone(page), d, UndoOf(d, page, nil)})
				d.Apply(page)
			}
			want := bytes.Clone(page)
			for i := len(hist) - 1; i >= 0; i-- {
				for r := hist[i].d.Runs(); r.Valid(); r.Next() {
					copy(want[r.Off():], hist[i].base[r.Off():r.Off()+len(r.Data())])
				}
			}
			got, done := bytes.Clone(page), make([]byte, BitmapLen(size))
			for _, s := range hist {
				s.u.Restore(got, done)
			}
			if !bytes.Equal(got, want) || !bytes.Equal(got, hist[0].base) {
				t.Fatalf("page %d, trial %d: oldest-first restore differs from newest-first", size, trial)
			}
		}
	}
}

// Shallow's float64 updates change the low word of every other word pair:
// the run form pays an 8-byte header per 4-byte run, the bitmap form one
// bit per word. Pinned against the sizes quoted in DESIGN.md.
func TestUndoShallowShapeHalvesRunForm(t *testing.T) {
	twin := make([]byte, 4096)
	cur := bytes.Clone(twin)
	for off := 0; off < len(cur); off += 2 * WordSize {
		cur[off] = 1
	}
	runForm := MakeDiff(0, cur, twin).WireSize()
	u := UndoFromTwin(cur, twin, nil)
	if runForm < 6*1024 || u.Size() > 2300 {
		t.Fatalf("every other word of a 4 KB page: undo %d bytes (want <= 2300), run form %d (want >= 6144)",
			u.Size(), runForm)
	}
	if want := BitmapLen(4096) + 512*WordSize; u.Size() != want {
		t.Fatalf("undo holds %d bytes, want bitmap + 512 words = %d", u.Size(), want)
	}
}

// A clean page costs nothing; a dirty one, from a nil log, its single exact
// allocation.
func TestUndoFromTwinAllocations(t *testing.T) {
	skipUnderRace(t)
	twin, cur := benchPage(0.02)
	if a := testing.AllocsPerRun(100, func() { UndoFromTwin(twin, twin, nil) }); a != 0 {
		t.Errorf("UndoFromTwin on a clean page: %.1f allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { UndoFromTwin(cur, twin, nil) }); a != 1 {
		t.Errorf("UndoFromTwin on a dirty page: %.1f allocs/op, want 1", a)
	}
}
