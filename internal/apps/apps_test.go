package apps

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
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
	// Overlapping regions go to the lower node, and a region reaching
	// outside the space claims only the pages inside it.
	homes = BlockHomesForRegions(6, 100, 3, func(node int) [][2]int {
		switch node {
		case 1:
			return [][2]int{{-50, 101}, {450, 900}}
		case 2:
			return [][2]int{{0, 600}}
		}
		return [][2]int{{201, 300}}
	})
	if want := []int{1, 1, 2, 2, 2, 1}; !slices.Equal(homes, want) {
		t.Fatalf("overlapping regions: homes = %v, want %v", homes, want)
	}
	// Unclaimed pages default to node 0.
	homes = BlockHomesForRegions(4, 100, 2, func(int) [][2]int { return nil })
	for _, h := range homes {
		if h != 0 {
			t.Fatal("unclaimed pages must default to node 0")
		}
	}
}

// homesPerPage is BlockHomesForRegions by its definition: each page goes
// to the lowest node one of whose regions holds its first byte, node 0
// when none does. It asks for every node's regions once per page.
func homesPerPage(pages, pageSize, nodes int, regions func(node int) [][2]int) []int {
	homes := make([]int, pages)
	for p := range homes {
		addr := p * pageSize
	claim:
		for node := range nodes {
			for _, r := range regions(node) {
				if addr >= r[0] && addr < r[1] {
					homes[p] = node
					break claim
				}
			}
		}
	}
	return homes
}

// BlockHomesForRegions equals the per-page definition on region shapes
// like the kernels' and on ones they never make, and asks each node's
// regions once. The kernel-like layouts put groups of arrays of rows back
// to back with each array's rows split into node blocks (3D-FFT, MG,
// Shallow and Water split planes, slabs, rows and molecules so; MG's
// coarse levels leave some nodes no rows), a 16-byte slot per node and a
// result region at node 0; the strided one deals rows round robin; the random ones overlap, run outside the space, are empty or
// reversed. Pages are 64, 100 and 4096 bytes. It takes about 0.04 s.
func TestBlockHomesForRegionsMatchesPerPage(t *testing.T) {
	type layout struct {
		name    string
		space   int
		regions func(node int) [][2]int
	}
	// kernelLike lays out groups of {arrays, rows, row bytes}.
	kernelLike := func(nodes int, groups ...[3]int) layout {
		slots := 0
		for _, g := range groups {
			slots += g[0] * g[1] * g[2]
		}
		result := slots + nodes*16
		return layout{fmt.Sprintf("kernel-like %v", groups), result + 8*groups[0][2], func(node int) [][2]int {
			var rs [][2]int
			at := 0
			for _, g := range groups {
				arrays, rows, rowBytes := g[0], g[1], g[2]
				lo, hi := node*rows/nodes, (node+1)*rows/nodes
				for range arrays {
					rs = append(rs, [2]int{at + lo*rowBytes, at + hi*rowBytes})
					at += rows * rowBytes
				}
			}
			rs = append(rs, [2]int{slots + node*16, slots + (node+1)*16})
			if node == 0 {
				rs = append(rs, [2]int{result, result + 8*groups[0][2]})
			}
			return rs
		}}
	}
	strided := func(rows, rowBytes, nodes int) layout {
		return layout{fmt.Sprintf("strided %dx%d", rows, rowBytes), rows * rowBytes, func(node int) [][2]int {
			var rs [][2]int
			for r := node; r < rows; r += nodes {
				rs = append(rs, [2]int{r * rowBytes, (r + 1) * rowBytes})
			}
			return rs
		}}
	}
	random := func(seed uint64, space, nodes int) layout {
		rs := make([][][2]int, nodes)
		rng := rand.New(rand.NewPCG(seed, 0))
		for node := range rs {
			for range rng.IntN(5) {
				lo := rng.IntN(space+400) - 200
				rs[node] = append(rs[node], [2]int{lo, lo + rng.IntN(space/2+1) - 50})
			}
		}
		return layout{fmt.Sprintf("random %d", seed), space, func(node int) [][2]int { return rs[node] }}
	}
	const nodes = 8
	var layouts []layout
	for _, shape := range [][3]int{{13, 64, 1024}, {4, 32, 72}, {9, 17, 24}, {3, 8, 12296}} {
		layouts = append(layouts, kernelLike(nodes, shape))
	}
	layouts = append(layouts, kernelLike(nodes, [3]int{4, 16, 2048}, [3]int{4, 8, 512}, [3]int{4, 4, 128}, [3]int{4, 2, 32}))
	layouts = append(layouts, strided(96, 520, nodes), strided(40, 24, nodes))
	for seed := range uint64(20) {
		layouts = append(layouts, random(seed, 3000, nodes))
	}
	for _, l := range layouts {
		for _, pageSize := range []int{64, 100, 4096} {
			pages := (l.space + pageSize - 1) / pageSize
			asked := make([]int, nodes)
			got := BlockHomesForRegions(pages, pageSize, nodes, func(node int) [][2]int {
				asked[node]++
				return l.regions(node)
			})
			if want := homesPerPage(pages, pageSize, nodes, l.regions); !slices.Equal(got, want) {
				t.Errorf("%s, %d-byte pages: homes = %v, want %v", l.name, pageSize, got, want)
			}
			for node, n := range asked {
				if n != 1 {
					t.Errorf("%s, %d-byte pages: node %d's regions asked %d times, want once", l.name, pageSize, node, n)
				}
			}
		}
	}
}
