package memory

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// scatteredPage returns a page of size bytes and a copy with words
// changed at random, about one in every spread.
func scatteredPage(rng *rand.Rand, size, spread int) (twin, cur []byte) {
	twin = make([]byte, size)
	rng.Read(twin)
	cur = bytes.Clone(twin)
	for w := rng.Intn(spread); w < size/WordSize; w += 1 + rng.Intn(spread) {
		cur[w*WordSize] ^= 0xff
	}
	return twin, cur
}

// Entries cut from one log are disjoint and capacity-clipped: filling
// each with its own byte leaves every other one intact, appending to one
// reallocates instead of reaching its neighbour, and each still restores
// its page.
func TestUndoLogEntriesAreDisjointAndClipped(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	log := NewUndoLog(1)
	type cut struct {
		u         Undo
		twin, cur []byte
	}
	var cuts []cut
	for len(cuts) < 200 { // several chunks' worth
		twin, cur := scatteredPage(rng, 4096, 1+rng.Intn(40))
		u := UndoFromTwin(cur, twin, log)
		if cap(u.b) != len(u.b) {
			t.Fatalf("entry %d: len %d cap %d, want equal", len(cuts), len(u.b), cap(u.b))
		}
		cuts = append(cuts, cut{u, twin, cur})
	}
	for i, c := range cuts {
		work := bytes.Clone(c.cur)
		c.u.Restore(work, make([]byte, BitmapLen(len(work))))
		if !bytes.Equal(work, c.twin) {
			t.Fatalf("entry %d no longer restores its twin", i)
		}
	}
	for i, c := range cuts {
		grown := append(c.u.b, 0xee)
		if &grown[0] == &c.u.b[0] {
			t.Fatalf("appending to entry %d grew it in place", i)
		}
		for j := range c.u.b {
			c.u.b[j] = byte(i)
		}
	}
	for i, c := range cuts {
		if bytes.Count(c.u.b, []byte{byte(i)}) != len(c.u.b) {
			t.Fatalf("entry %d was overwritten by a neighbour", i)
		}
	}
}

// Entries share chunks: 64 scattered entries of a 4 KB page cost one
// allocation per chunk they fill from a log, and one each from a nil one.
// An entry above ownAbove is made on its own and leaves the chunk's
// tail to the next entry.
func TestUndoLogAllocations(t *testing.T) {
	skipUnderRace(t)
	twin, cur := benchPage(0.02)
	size := UndoFromTwin(cur, twin, nil).Size()
	const batch = 64
	perChunk := bigChunk / size
	chunks := float64((batch + perChunk - 1) / perChunk)
	var log *UndoLog
	if a := testing.AllocsPerRun(20, func() {
		log = NewUndoLog(1)
		for range batch {
			UndoFromTwin(cur, twin, log)
		}
	}); a > chunks+2 { // +2: NewUndoLog's log and chain index
		t.Errorf("%d entries of %d B from one log: %.1f allocs, want <= %v chunks + 2", batch, size, a, chunks)
	}
	if a := testing.AllocsPerRun(20, func() {
		for range batch {
			UndoFromTwin(cur, twin, nil)
		}
	}); a != batch {
		t.Errorf("%d entries from a nil log: %.1f allocs, want one each", batch, a)
	}

	big := make([]byte, 16384)
	whole := bytes.Repeat([]byte{1}, len(big))
	if n := UndoFromTwin(whole, big, nil).Size(); n <= ownAbove {
		t.Fatalf("a rewritten 16 KB page's entry is %d B, not above ownAbove (%d)", n, ownAbove)
	}
	log = NewUndoLog(1)
	UndoFromTwin(cur, twin, log)
	tail := len(log.bytes.free)
	if a := testing.AllocsPerRun(20, func() { UndoFromTwin(whole, big, log) }); a != 1 {
		t.Errorf("an entry above ownAbove: %.1f allocs, want its own one", a)
	}
	if len(log.bytes.free) != tail {
		t.Errorf("an entry above ownAbove took %d B of the chunk", tail-len(log.bytes.free))
	}
}

// Each page's entries chain oldest first, interleaved with other pages'
// in the table; empty entries are not kept, and Reset empties every page.
func TestUndoLogChainsPagesOldestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	log := NewUndoLog(3)
	want := make([][]int32, 3)
	for seq := int32(1); seq <= 60; seq++ {
		p := PageID(rng.Intn(3))
		if p == 2 {
			log.Add(p, 1, seq, Undo{}) // a clean interval
			continue
		}
		twin, cur := scatteredPage(rng, 256, 8)
		log.Add(p, seq%3, seq, UndoFromTwin(cur, twin, log))
		want[p] = append(want[p], seq)
	}
	got := func(p PageID) []int32 {
		var seqs []int32
		for e := log.Entries(p); e.Valid(); e.Next() {
			if e.Writer() != e.Seq()%3 || e.Undo().Empty() {
				t.Fatalf("page %d entry %d: writer %d, empty %v", p, e.Seq(), e.Writer(), e.Undo().Empty())
			}
			seqs = append(seqs, e.Seq())
		}
		return seqs
	}
	for p := PageID(0); p < 3; p++ {
		if g := got(p); !slices.Equal(g, want[p]) {
			t.Fatalf("page %d chains %v, want %v", p, g, want[p])
		}
	}
	log.Reset()
	for p := PageID(0); p < 3; p++ {
		if g := got(p); len(g) != 0 {
			t.Fatalf("page %d chains %v after Reset, want none", p, g)
		}
	}
	twin, cur := scatteredPage(rng, 256, 8)
	log.Add(1, 1, 61, UndoFromTwin(cur, twin, log))
	if g := got(1); len(g) != 1 || g[0] != 61 {
		t.Fatalf("page 1 chains %v after Reset and one Add, want [61]", g)
	}
}
