package vclock

import (
	"testing"
	"testing/quick"

	"sdsm/internal/arena"
	"sdsm/internal/racedetect"
)

func TestNewIsZero(t *testing.T) {
	v := New(4)
	if len(v) != 4 {
		t.Fatalf("len = %d", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Fatalf("v[%d] = %d, want 0", i, x)
		}
	}
}

func TestTick(t *testing.T) {
	v := New(3)
	if got := v.Tick(1); got != 1 {
		t.Fatalf("first tick = %d", got)
	}
	if got := v.Tick(1); got != 2 {
		t.Fatalf("second tick = %d", got)
	}
	if v[0] != 0 || v[2] != 0 {
		t.Fatal("tick leaked into other components")
	}
}

func TestMergeAndCovers(t *testing.T) {
	a := VC{1, 5, 0}
	b := VC{3, 2, 0}
	if a.Covers(b) || b.Covers(a) {
		t.Fatal("concurrent vectors must not cover each other")
	}
	a.Merge(b)
	want := VC{3, 5, 0}
	if !a.Equal(want) {
		t.Fatalf("merge = %v, want %v", a, want)
	}
	if !a.Covers(b) {
		t.Fatal("merged vector must cover both inputs")
	}
	if !a.Covers(VC{}) {
		t.Fatal("every vector covers the empty vector")
	}
}

func TestCoversInterval(t *testing.T) {
	v := VC{2, 0, 7}
	if !v.CoversInterval(0, 2) || !v.CoversInterval(2, 5) {
		t.Fatal("CoversInterval false negative")
	}
	if v.CoversInterval(0, 3) || v.CoversInterval(1, 1) {
		t.Fatal("CoversInterval false positive")
	}
	if v.CoversInterval(-1, 0) || v.CoversInterval(9, 0) {
		t.Fatal("out-of-range process must not be covered")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := VC{1, 2}
	b := a.Clone()
	b.Tick(0)
	if a[0] != 1 {
		t.Fatal("clone shares storage with original")
	}
}

// TestEncodeDecodeRoundTrip decodes every vector twice, with no slab
// and through one slab shared by every decode: both give the vector
// back, an empty one as VC{}, and a cut vector's capacity is its length.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	var slab arena.Slab[int32]
	f := func(raw []int32) bool {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		v := VC(raw)
		buf := v.Encode(nil)
		if len(buf) != v.WireSize() {
			return false
		}
		for _, s := range []*arena.Slab[int32]{nil, &slab} {
			got, rest, err := DecodeVC(buf, s)
			if err != nil || len(rest) != 0 || got == nil || cap(got) != len(got) {
				return false
			}
			if len(got) != len(v) || (len(v) > 0 && !got.Equal(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeVC(nil, nil); err == nil {
		t.Fatal("decode of empty buffer must fail")
	}
	// Header says 4 entries but payload is short.
	buf := VC{1, 2, 3, 4}.Encode(nil)
	if _, _, err := DecodeVC(buf[:6], nil); err == nil {
		t.Fatal("decode of truncated buffer must fail")
	}
}

func TestMergeIdempotentCommutativeProperty(t *testing.T) {
	f := func(a0, b0 []int32) bool {
		n := 8
		a, b := New(n), New(n)
		for i := 0; i < n && i < len(a0); i++ {
			a[i] = a0[i]
		}
		for i := 0; i < n && i < len(b0); i++ {
			b[i] = b0[i]
		}
		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !ab.Equal(ba) { // commutative
			return false
		}
		again := ab.Clone()
		again.Merge(b) // idempotent
		return again.Equal(ab) && ab.Covers(a) && ab.Covers(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStrings(t *testing.T) {
	v := VC{1, 0, 3}
	if v.String() != "<1 0 3>" {
		t.Fatalf("VC string: %s", v.String())
	}
	iv := Interval{Proc: 2, Seq: 9}
	if iv.String() != "p2:9" {
		t.Fatal("Interval string")
	}
}

// A shared value is never written again: every change after Share lands
// in a copy, a change before the next Share writes in place, and a merge
// that raises nothing copies nothing. Copies are cut from the holder's
// slab, 32 four-entry copies to a 512-byte block, so 64 share+tick pairs
// cost exactly two allocations: fewer means a change wrote the shared
// value, more that a copy bypassed the slab.
func TestCOWCopiesOnlyOnChangeAfterShare(t *testing.T) {
	var slab arena.Slab[int32]
	c := Own(VC{1, 0, 2, 7}, &slab)
	sent := c.Share()
	c.Merge(VC{1, 0, 1}) // raises nothing
	if &c.Get()[0] != &sent[0] {
		t.Fatal("a merge that raised nothing copied the shared value")
	}
	c.Tick(1)
	c.SetAt(2, 5)
	c.Merge(VC{4, 0, 0})
	if !sent.Equal(VC{1, 0, 2, 7}) {
		t.Fatalf("shared value changed to %v", sent)
	}
	if got := c.Get(); !got.Equal(VC{4, 1, 5, 7}) {
		t.Fatalf("holder = %v, want <4 1 5 7>", got)
	}
	if got := c.Get(); cap(got) != len(got) {
		t.Fatalf("copy has capacity %d beyond its %d entries", cap(got), len(got))
	}
	own := c.Get()
	c.Tick(0)
	if own[0] != 5 {
		t.Fatal("a change with nothing shared copied the value")
	}
	if racedetect.Enabled {
		return // allocation counts are not meaningful under -race
	}
	if a := testing.AllocsPerRun(10, func() {
		for range 64 {
			c.Share()
			c.Tick(0)
		}
	}); a != 2 {
		t.Fatalf("64 shares then ticks: %v allocs, want 2 (64 copies, 32 to a block)", a)
	}
}
