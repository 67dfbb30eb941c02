package arena

import (
	"fmt"
	"reflect"
	"testing"

	"sdsm/internal/racedetect"
)

// payload has the shape of a lock message: a number, a clock and a
// notice list, 56 bytes holding pointers.
type payload struct {
	n  int32
	vt []int32
	ns []string
}

// TestSlab checks the slab's contract: every value and cut is fresh and
// zeroed, a cut cannot be appended into its neighbour, a block stays at
// or under 512 bytes and costs one allocation, a cut of more than half a
// block is a plain make that leaves the block alone, and a nil slab
// makes everything it hands out.
func TestSlab(t *testing.T) {
	t.Run("payload", func(t *testing.T) { testSlab(t, func(p *payload) { p.n = 7 }) })
	t.Run("int32", func(t *testing.T) { testSlab(t, func(x *int32) { *x = 7 }) })
	t.Run("oversize", func(t *testing.T) { testSlab(t, func(b *[600]byte) { b[0] = 7 }) })
	t.Run("handoff", testSlabHandoff)
}

// testSlabHandoff sends values and cuts to a reader goroutine while the
// writer keeps filling their neighbours in the same blocks, as a node
// does with its sent payloads: the reader must see each one as written,
// and under the race detector no write may touch a value already sent.
func testSlabHandoff(t *testing.T) {
	var s Slab[payload]
	var clocks Slab[int32]
	ch := make(chan *payload, 8)
	done := make(chan error)
	go func() {
		var err error
		i := int32(0)
		for p := range ch {
			if err == nil && (p.n != i || len(p.vt) != 3 || p.vt[0] != i || p.vt[2] != -i) {
				err = fmt.Errorf("value %d read back as {%d %v}", i, p.n, p.vt)
			}
			i++
		}
		done <- err
	}()
	for i := int32(0); i < 1000; i++ {
		p := s.New()
		p.n, p.vt = i, clocks.Cut(3)
		p.vt[0], p.vt[2] = i, -i
		ch <- p
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// testSlab runs TestSlab for one type; mark makes a zero T nonzero.
func testSlab[T any](t *testing.T, mark func(*T)) {
	isZero := func(v *T) bool { return reflect.ValueOf(v).Elem().IsZero() }
	var s Slab[T]
	per := s.perBlock()
	size := int(reflect.TypeFor[T]().Size())
	if (per > 1 && per*size > blockBytes) || (per+1)*size <= blockBytes {
		t.Fatalf("%d values of %d bytes do not fill a block of at most %d bytes", per, size, blockBytes)
	}

	// Every value and every element of every cut, across several blocks,
	// is zero when handed out and distinct from all before it: each is
	// marked once handed out, so one handed out again reads nonzero.
	seen := make(map[*T]bool)
	fresh := func(v *T, what string) {
		t.Helper()
		if !isZero(v) {
			t.Fatalf("%s handed out nonzero", what)
		}
		if seen[v] {
			t.Fatalf("%s handed out twice", what)
		}
		seen[v] = true
		mark(v)
	}
	for i := 0; i < 4*per; i++ {
		fresh(s.New(), "value")
		n := 1 + i%max(1, per/2)
		c := s.Cut(n)
		if len(c) != n || cap(c) != n {
			t.Fatalf("Cut(%d): len %d cap %d", n, len(c), cap(c))
		}
		for j := range c {
			fresh(&c[j], "cut element")
		}
	}
	if s.Cut(0) != nil {
		t.Fatal("Cut(0) is not nil")
	}

	// A nil slab makes each value and cut on its own, with the same
	// shapes: a cut of none is nil there too.
	var none *Slab[T]
	fresh(none.New(), "value of a nil slab")
	if c := none.Cut(2); len(c) != 2 || cap(c) != 2 || !isZero(&c[1]) {
		t.Fatalf("Cut(2) of a nil slab: len %d cap %d", len(c), cap(c))
	}
	if none.Cut(0) != nil {
		t.Fatal("Cut(0) of a nil slab is not nil")
	}

	// Appending to a cut reallocates instead of reaching the value cut
	// after it.
	c := s.Cut(1)
	next := s.New()
	c = append(c, c[0])
	if &c[1] == next || !isZero(next) {
		t.Fatal("append to a cut reached its neighbour")
	}

	// A cut of more than half a block is made on its own: the block's
	// remaining values are still handed out.
	s = Slab[T]{}
	s.New()
	left := len(s.block)
	if left != per-1 || cap(s.block) != per-1 {
		t.Fatalf("a new block holds %d values, want %d", left+1, per)
	}
	big := s.Cut(per/2 + 1)
	if len(big) != per/2+1 || cap(big) != per/2+1 || len(s.block) != left {
		t.Fatalf("Cut(%d) of a %d-value block: len %d cap %d, block %d → %d values",
			per/2+1, per, len(big), cap(big), left, len(s.block))
	}

	if racedetect.Enabled {
		return // allocation counts are not meaningful under -race
	}
	// One allocation per block: a run that takes exactly one block's
	// values, starting at a block boundary, allocates once.
	s = Slab[T]{}
	if a := testing.AllocsPerRun(50, func() {
		for range per {
			s.New()
		}
	}); a != 1 {
		t.Errorf("%d values: %v allocations, want 1 (the block)", per, a)
	}
	if a := testing.AllocsPerRun(50, func() { s.Cut(per/2 + 1) }); a != 1 {
		t.Errorf("Cut(%d): %v allocations, want 1", per/2+1, a)
	}
}
