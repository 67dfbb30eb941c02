// Package apps defines the evaluation workloads of the paper's Table 1 —
// 3D-FFT, MG, Shallow and Water — as SPMD programs over the SDSM Proc
// API, plus the common scaffolding they share.
//
// Each workload is a real numerical kernel (not a traffic generator):
// 3D-FFT computes genuine fast Fourier transforms, MG runs multigrid
// V-cycles on the Poisson equation, Shallow integrates the shallow-water
// equations, and Water integrates Lennard-Jones molecular dynamics with
// the lock-and-barrier sharing structure of SPLASH Water. Their numerics
// are verified against sequential golden runs and physical invariants.
package apps

import (
	"math"

	"sdsm/internal/core"
)

// Workload is one benchmark application instance.
type Workload struct {
	// Name as in the paper's Table 1.
	Name string
	// Sync describes the synchronization style ("barriers" or
	// "locks and barriers"), Table 1's last column.
	Sync string
	// DataSet describes the problem size, Table 1's middle column.
	DataSet string
	// PageSize and Pages size the shared space the program needs.
	PageSize int
	Pages    int
	// Homes optionally overrides the page-home assignment to match the
	// program's data partitioning; nil uses block distribution.
	Homes []int
	// Prog is the SPMD body.
	Prog core.Program
	// Check validates the final authoritative memory image (numerics,
	// physical invariants). Exact golden comparisons live in tests.
	Check func(img []byte) error
	// CrashOp is a suitable late-run synchronization op index for the
	// recovery experiments (roughly 80-90% through the run).
	CrashOp int32
	// Deterministic reports whether the final image is bit-reproducible
	// across runs and cluster sizes (false for Water, whose lock-ordered
	// force accumulation reorders floating-point sums).
	Deterministic bool
}

// BaseConfig builds the run configuration for this workload.
func (w *Workload) BaseConfig(nodes int) core.Config {
	return core.Config{
		Nodes:    nodes,
		PageSize: w.PageSize,
		NumPages: w.Pages,
		Homes:    w.Homes,
	}
}

// F64at reads the float64 at byte offset off of a memory image.
func F64at(img []byte, off int) float64 {
	return math.Float64frombits(leU64(img[off:]))
}

func leU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// AlignUp rounds n up to a multiple of align.
func AlignUp(n, align int) int {
	return (n + align - 1) / align * align
}

// BlockHomesForRegions assigns page homes to match a program's data
// partitioning: a page is homed at the lowest node one of whose byte
// regions contains the page's first byte. Regions are given as, per node,
// a list of [start, end) byte ranges; unclaimed pages go to node 0.
// regions is called once per node.
func BlockHomesForRegions(pages, pageSize, nodes int, regions func(node int) [][2]int) []int {
	homes := make([]int, pages) // an unclaimed page stays at node 0
	// firstPage is the first page whose first byte lies at or after addr.
	firstPage := func(addr int) int { return min(max(addr+pageSize-1, 0)/pageSize, pages) }
	for node := nodes - 1; node >= 0; node-- { // a lower node's claim overwrites a higher one's
		for _, r := range regions(node) {
			for p := firstPage(r[0]); p < firstPage(r[1]); p++ {
				homes[p] = node
			}
		}
	}
	return homes
}
