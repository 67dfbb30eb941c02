package apps

import (
	"encoding/binary"
	"math"
	"testing"
)

func TestF64at(t *testing.T) {
	img := make([]byte, 16)
	binary.LittleEndian.PutUint64(img[8:], math.Float64bits(2.5))
	if F64at(img, 8) != 2.5 {
		t.Fatal("F64at")
	}
}

func TestPagesForAlignUp(t *testing.T) {
	if AlignUp(0, 8) != 0 || AlignUp(5, 8) != 8 || AlignUp(16, 8) != 16 {
		t.Fatal("AlignUp")
	}
}

func TestBlockHomesForRegions(t *testing.T) {
	// Two nodes, 8 pages of 100 bytes; node 0 owns [0,350), node 1 owns
	// [350, 800).
	homes := BlockHomesForRegions(8, 100, 2, func(node int) [][2]int {
		if node == 0 {
			return [][2]int{{0, 350}}
		}
		return [][2]int{{350, 800}}
	})
	want := []int{0, 0, 0, 0, 1, 1, 1, 1}
	for p := range want {
		if homes[p] != want[p] {
			t.Fatalf("homes = %v, want %v", homes, want)
		}
	}
	// Unclaimed pages default to node 0.
	homes = BlockHomesForRegions(4, 100, 2, func(int) [][2]int { return nil })
	for _, h := range homes {
		if h != 0 {
			t.Fatal("unclaimed pages must default to node 0")
		}
	}
}
