// Package water implements the Water workload of the paper's evaluation.
// SPLASH Water-nsquared is an O(n²) molecular dynamics simulation whose
// SDSM signature is the combination of barriers between phases and
// per-partition locks protecting force accumulation into other
// processes' molecules. This implementation integrates Lennard-Jones
// point molecules with velocity Verlet — the physics is simplified from
// SPLASH's rigid water model, but the half-shell pair decomposition, the
// lock-protected scatter of force contributions, and the barrier
// structure are exactly the sharing pattern the paper measures
// (documented as a substitution in DESIGN.md).
package water

import (
	"fmt"
	"math"

	"sdsm/internal/apps"
	"sdsm/internal/core"
)

const (
	dt      = 0.002 // reduced time step
	density = 0.6   // reduced density
)

type params struct {
	n        int // molecules
	steps    int
	nodes    int
	pageSize int
	box      float64
	cutoff   float64

	pos, vel, force int // n x 3 float64 arrays
	baseC           int // per-node (potential, kinetic) partials
	baseR           int // per-step (potential, kinetic, total)
	total           int
}

func layout(n, steps, nodes, pageSize int) *params {
	pr := &params{n: n, steps: steps, nodes: nodes, pageSize: pageSize}
	pr.box = math.Cbrt(float64(n) / density)
	pr.cutoff = math.Min(2.5, pr.box/2)
	off := 0
	alloc := func(bytes int) int {
		base := off
		off = apps.AlignUp(off+bytes, pageSize)
		return base
	}
	arr := n * 3 * 8
	pr.pos = alloc(arr)
	pr.vel = alloc(arr)
	pr.force = alloc(arr)
	pr.baseC = alloc(nodes * 2 * 8)
	pr.baseR = alloc(steps * 3 * 8)
	pr.total = off
	return pr
}

func (pr *params) homes() []int {
	return apps.BlockHomesForRegions(pr.total/pr.pageSize, pr.pageSize, pr.nodes, func(node int) [][2]int {
		mlo, mhi := node*pr.n/pr.nodes, (node+1)*pr.n/pr.nodes
		var rs [][2]int
		for _, base := range []int{pr.pos, pr.vel, pr.force} {
			rs = append(rs, [2]int{base + mlo*24, base + mhi*24})
		}
		rs = append(rs, [2]int{pr.baseC + node*16, pr.baseC + (node+1)*16})
		if node == 0 {
			rs = append(rs, [2]int{pr.baseR, pr.baseR + pr.steps*24})
		}
		return rs
	})
}

// New builds the Water workload: `steps` velocity-Verlet steps of n
// Lennard-Jones molecules. n must be divisible by nodes.
func New(n, steps, nodes, pageSize int) *apps.Workload {
	if n%nodes != 0 || n < 2*nodes {
		panic(fmt.Sprintf("water: %d molecules not partitionable over %d nodes", n, nodes))
	}
	pr := layout(n, steps, nodes, pageSize)
	// Per-node sync ops per step: 4 barriers plus a data-dependent number
	// of lock pairs; count only the barriers so the static crash point is
	// always reachable (benchmarks place crashes from measured op counts
	// instead).
	opsPerStep := int32(4)
	return &apps.Workload{
		Name:          "Water",
		Sync:          "locks and barriers",
		DataSet:       fmt.Sprintf("%d steps on %d molecules", steps, n),
		PageSize:      pageSize,
		Pages:         pr.total / pageSize,
		Homes:         pr.homes(),
		Deterministic: false, // lock-ordered force sums reorder FP additions
		CrashOp:       1 + int32(float64(steps)*0.8)*opsPerStep,
		Prog:          pr.prog,
		Check: func(img []byte) error {
			e0 := apps.F64at(img, pr.baseR+16)
			if math.IsNaN(e0) || e0 == 0 {
				return fmt.Errorf("water: degenerate initial energy %g", e0)
			}
			for s := 1; s < pr.steps; s++ {
				e := apps.F64at(img, pr.baseR+s*24+16)
				if math.Abs(e-e0) > 0.02*math.Abs(e0) {
					return fmt.Errorf("water: energy drift %g -> %g at step %d", e0, e, s)
				}
			}
			return nil
		},
	}
}

// forceRows is one node's scratch for forcePhase: the position array it
// reads, the contributions it accumulates per molecule, which partitions
// they touch, and the force block it scatters under a lock. prog makes
// one per node and passes it down; params is shared by every node's
// goroutine, so the scratch cannot live there.
type forceRows struct {
	pos, acc, block []float64
	touched         []bool
}

func (pr *params) newForceRows() *forceRows {
	return &forceRows{
		pos:     make([]float64, pr.n*3),
		acc:     make([]float64, pr.n*3),
		block:   make([]float64, pr.n/pr.nodes*3),
		touched: make([]bool, pr.nodes),
	}
}

// initPos places molecule i on a jittered cubic lattice (deterministic).
func (pr *params) initPos(i int) (x, y, z float64) {
	side := int(math.Ceil(math.Cbrt(float64(pr.n))))
	cell := pr.box / float64(side)
	ix, iy, iz := i%side, (i/side)%side, i/(side*side)
	h := uint64(i)*0x9e3779b97f4a7c15 + 7
	h ^= h >> 29
	jit := func(k uint64) float64 {
		v := (h*k ^ (h*k)>>31) % 1000
		return (float64(v)/1000 - 0.5) * 0.1 * cell
	}
	return (float64(ix)+0.5)*cell + jit(3),
		(float64(iy)+0.5)*cell + jit(5),
		(float64(iz)+0.5)*cell + jit(7)
}

func (pr *params) prog(p *core.Proc) {
	id, P := p.ID(), p.N()
	n := pr.n
	mlo, mhi := id*n/P, (id+1)*n/P
	own := mhi - mlo
	b := 0
	bar := func() { p.Barrier(b); b++ }

	// --- Initialization: lattice positions, zero velocities/forces.
	buf := make([]float64, own*3)
	for i := mlo; i < mhi; i++ {
		x, y, z := pr.initPos(i)
		buf[(i-mlo)*3], buf[(i-mlo)*3+1], buf[(i-mlo)*3+2] = x, y, z
	}
	p.WriteF64s(pr.pos+mlo*24, buf)
	bar()

	// Initial force evaluation so the first kick has forces.
	fr := pr.newForceRows()
	pot := pr.forcePhase(p, fr, mlo, mhi)
	bar()

	vels := make([]float64, own*3)
	forces := make([]float64, own*3)
	poss := make([]float64, own*3)

	wrap := func(x float64) float64 {
		for x < 0 {
			x += pr.box
		}
		for x >= pr.box {
			x -= pr.box
		}
		return x
	}

	for step := 0; step < pr.steps; step++ {
		// --- Phase 1 (own molecules): first kick, drift, clear forces.
		p.ReadF64s(pr.vel+mlo*24, vels)
		p.ReadF64s(pr.force+mlo*24, forces)
		p.ReadF64s(pr.pos+mlo*24, poss)
		for k := 0; k < own*3; k++ {
			vels[k] += 0.5 * dt * forces[k]
			poss[k] = wrap(poss[k] + dt*vels[k])
			forces[k] = 0
		}
		p.WriteF64s(pr.vel+mlo*24, vels)
		p.WriteF64s(pr.pos+mlo*24, poss)
		p.WriteF64s(pr.force+mlo*24, forces)
		p.Compute(float64(own * 12))
		bar()

		// --- Phase 2: O(n²) half-shell force computation with
		// lock-protected scatter (the SPLASH Water pattern).
		pot = pr.forcePhase(p, fr, mlo, mhi)
		bar()

		// --- Phase 3 (own): second kick and energy partials.
		p.ReadF64s(pr.vel+mlo*24, vels)
		p.ReadF64s(pr.force+mlo*24, forces)
		var kin float64
		for k := 0; k < own*3; k++ {
			vels[k] += 0.5 * dt * forces[k]
			kin += 0.5 * vels[k] * vels[k]
		}
		p.WriteF64s(pr.vel+mlo*24, vels)
		p.Compute(float64(own * 9))
		p.WriteF64(pr.baseC+id*16, pot)
		p.WriteF64(pr.baseC+id*16+8, kin)
		bar()

		if id == 0 {
			var tp, tk float64
			for q := 0; q < P; q++ {
				tp += p.ReadF64(pr.baseC + q*16)
				tk += p.ReadF64(pr.baseC + q*16 + 8)
			}
			p.WriteF64(pr.baseR+step*24, tp)
			p.WriteF64(pr.baseR+step*24+8, tk)
			p.WriteF64(pr.baseR+step*24+16, tp+tk)
		}
		bar()
	}
}

// forcePhase computes this node's half-shell pair interactions, then
// scatters the accumulated contributions into the shared force array
// under the per-partition locks. Returns the node's potential-energy
// partial.
func (pr *params) forcePhase(p *core.Proc, fr *forceRows, mlo, mhi int) float64 {
	n := pr.n
	P := pr.nodes
	// Read the full position array once (everyone reads everything: the
	// O(n²) all-pairs pattern).
	pos := fr.pos
	p.ReadF64s(pr.pos, pos)

	acc, touched := fr.acc, fr.touched
	clear(acc)
	clear(touched)
	rc2 := pr.cutoff * pr.cutoff
	// Shift the potential so it is continuous at the cutoff (keeps the
	// energy-conservation check meaningful).
	rcInv6 := 1 / (rc2 * rc2 * rc2)
	shift := 4 * rcInv6 * (rcInv6 - 1)
	var pot float64
	pairs := 0
	half := n / 2
	for i := mlo; i < mhi; i++ {
		for k := 1; k <= half; k++ {
			j := (i + k) % n
			if k == half && n%2 == 0 && i >= j {
				continue // avoid double-counting the antipodal pair
			}
			var d [3]float64
			r2 := 0.0
			for c := 0; c < 3; c++ {
				d[c] = pos[i*3+c] - pos[j*3+c]
				if d[c] > pr.box/2 {
					d[c] -= pr.box
				} else if d[c] < -pr.box/2 {
					d[c] += pr.box
				}
				r2 += d[c] * d[c]
			}
			pairs++
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			inv2 := 1 / r2
			inv6 := inv2 * inv2 * inv2
			pot += 4*inv6*(inv6-1) - shift
			fmag := 24 * inv6 * (2*inv6 - 1) * inv2
			for c := 0; c < 3; c++ {
				f := fmag * d[c]
				acc[i*3+c] += f
				acc[j*3+c] -= f
			}
			touched[i*P/n] = true
			touched[j*P/n] = true
		}
	}
	// SPLASH Water evaluates a rigid three-site water model per pair
	// (nine site-site distances plus Coulomb terms, roughly 400 flops);
	// the simplified Lennard-Jones force preserves the sharing pattern
	// but not the arithmetic volume, so the virtual-compute charge uses
	// the water-model cost (see DESIGN.md, substitutions).
	const flopsPerPair = 400
	p.Compute(float64(pairs * flopsPerPair))

	// Scatter the contributions under per-partition locks, starting at a
	// different partition per node (SPLASH's staggering: without it every
	// node would convoy on lock 0).
	per := n / P
	block := fr.block
	for k := 0; k < P; k++ {
		q := (mlo/per + k) % P
		if !touched[q] {
			continue
		}
		base := pr.force + q*per*24
		p.AcquireLock(q)
		p.ReadF64s(base, block)
		for k := 0; k < per*3; k++ {
			block[k] += acc[q*per*3+k]
		}
		p.WriteF64s(base, block)
		p.ReleaseLock(q)
	}
	p.Compute(float64(n * 3))
	return pot
}
