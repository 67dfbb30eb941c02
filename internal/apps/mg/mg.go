// Package mg implements the MG workload of the paper's evaluation — the
// NAS MG kernel: V-cycle multigrid for the Poisson problem on a 3-D
// periodic grid. The grid is partitioned in z-slabs; smoothing sweeps
// exchange ghost planes with the slab neighbours (the nearest-neighbour
// SDSM communication pattern), while restriction and prolongation stay
// slab-local because the coarse partition nests inside the fine one.
package mg

import (
	"fmt"
	"math"

	"sdsm/internal/apps"
	"sdsm/internal/core"
)

const omega = 2.0 / 3.0 // weighted-Jacobi smoothing factor

// pre/post/coarsest smoothing sweeps per V-cycle
const (
	nu1     = 2
	nu2     = 2
	nuCoars = 4
)

type level struct {
	n            int // grid edge
	u0, u1, f, r int // byte bases of the level's arrays
	h2           float64
}

type params struct {
	n        int // finest grid edge (power of two)
	cycles   int
	nodes    int
	pageSize int
	levels   []level
	baseC    int // per-node partial norms
	baseR    int // per-cycle residual norms (node 0)
	total    int
}

// layout places the per-level arrays. floor is the coarsest grid edge:
// the V-cycle depth is a property of the problem, not of the cluster
// size, so callers comparing different node counts must pass equal
// floors. New uses max(4, nodes), the deepest hierarchy every node can
// own a slab of.
func layout(n, cycles, nodes, pageSize, floor int) *params {
	pr := &params{n: n, cycles: cycles, nodes: nodes, pageSize: pageSize}
	off := 0
	alloc := func(bytes int) int {
		base := off
		off = apps.AlignUp(off+bytes, pageSize)
		return base
	}
	floor = maxInt(floor, 2) // the stencil rows need two edge cells
	for sz := n; sz%nodes == 0 && sz >= floor; sz /= 2 {
		lv := level{n: sz, h2: 1.0 / float64(sz*sz)}
		bytes := sz * sz * sz * 8
		lv.u0 = alloc(bytes)
		lv.u1 = alloc(bytes)
		lv.f = alloc(bytes)
		lv.r = alloc(bytes)
		pr.levels = append(pr.levels, lv)
	}
	pr.baseC = alloc(nodes * 8)
	pr.baseR = alloc((cycles + 1) * 8)
	pr.total = off
	return pr
}

// rows is one node's kernel scratch: the row buffers that the sweeps,
// the residual, the grid transfers and the initial norm read into and
// write from. Each is as long as the finest level's edge and is resliced
// to a level's edge per call. prog makes one per node and passes it
// down; params is shared by every node's goroutine, so the rows cannot
// live there.
type rows struct {
	c, zm, zp, ym, yp, f, out []float64
	zero                      []float64 // restriction's source for zeroing, never written
}

func newRows(n int) *rows {
	buf := make([]float64, 8*n)
	cut := func() []float64 {
		r := buf[:n:n]
		buf = buf[n:]
		return r
	}
	return &rows{c: cut(), zm: cut(), zp: cut(), ym: cut(), yp: cut(), f: cut(), out: cut(), zero: cut()}
}

// addr is the byte address of element (x,y,z) of the array based at base
// on an edge-n grid.
func addr(base, n, x, y, z int) int { return base + ((z*n+y)*n+x)*8 }

// homes assigns each level's z-slabs to their owners.
func (pr *params) homes() []int {
	return apps.BlockHomesForRegions(pr.total/pr.pageSize, pr.pageSize, pr.nodes, func(node int) [][2]int {
		var rs [][2]int
		for _, lv := range pr.levels {
			zlo, zhi := node*lv.n/pr.nodes, (node+1)*lv.n/pr.nodes
			planeBytes := lv.n * lv.n * 8
			for _, base := range []int{lv.u0, lv.u1, lv.f, lv.r} {
				rs = append(rs, [2]int{base + zlo*planeBytes, base + zhi*planeBytes})
			}
		}
		rs = append(rs, [2]int{pr.baseC + node*8, pr.baseC + (node+1)*8})
		if node == 0 {
			rs = append(rs, [2]int{pr.baseR, pr.baseR + (pr.cycles+1)*8})
		}
		return rs
	})
}

// OpsPerRun counts the synchronization operations of one run, used to
// place crash points.
func (pr *params) OpsPerRun() int32 {
	perCycle := 0
	L := len(pr.levels)
	for l := 0; l < L-1; l++ {
		// sweeps + residual barrier + restrict barrier + prolong barrier
		perCycle += nu1 + nu2 + 3
	}
	perCycle += nuCoars
	// init barrier + per cycle (vcycle + norm partial barrier + reduce barrier)
	return int32(1 + pr.cycles*(perCycle+2))
}

// New builds the MG workload: `cycles` V-cycles of the Poisson problem on
// an n³ periodic grid. n must be a power of two divisible by nodes at
// every level used.
func New(n, cycles, nodes, pageSize int) *apps.Workload {
	return newWithFloor(n, cycles, nodes, pageSize, maxInt(4, nodes))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func newWithFloor(n, cycles, nodes, pageSize, floor int) *apps.Workload {
	if n&(n-1) != 0 || n < 2 {
		panic(fmt.Sprintf("mg: grid %d not a power of two", n))
	}
	if n%nodes != 0 {
		panic(fmt.Sprintf("mg: grid %d not divisible by %d nodes", n, nodes))
	}
	pr := layout(n, cycles, nodes, pageSize, floor)
	return &apps.Workload{
		Name:          "MG",
		Sync:          "barriers",
		DataSet:       fmt.Sprintf("%d V-cycles on %dx%dx%d grid", cycles, n, n, n),
		PageSize:      pageSize,
		Pages:         pr.total / pageSize,
		Homes:         pr.homes(),
		Deterministic: true,
		CrashOp:       pr.OpsPerRun() * 4 / 5,
		Prog:          pr.prog,
		Check: func(img []byte) error {
			first := apps.F64at(img, pr.baseR)
			last := apps.F64at(img, pr.baseR+pr.cycles*8)
			if math.IsNaN(first) || math.IsNaN(last) || first <= 0 {
				return fmt.Errorf("mg: degenerate norms %g -> %g", first, last)
			}
			if last >= first/2 {
				return fmt.Errorf("mg: V-cycles did not reduce the residual: %g -> %g", first, last)
			}
			return nil
		},
	}
}

// sourceTerm builds the NAS-MG-style right-hand side: +1 at ten
// deterministic cells, -1 at ten others (zero mean, as the periodic
// problem requires).
func sourceCells(n int) (plus, minus [][3]int) {
	h := uint64(0x1234_5678_9abc_def0)
	next := func(lim int) int {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		return int(h % uint64(lim))
	}
	for i := 0; i < 10; i++ {
		plus = append(plus, [3]int{next(n), next(n), next(n)})
	}
	for i := 0; i < 10; i++ {
		minus = append(minus, [3]int{next(n), next(n), next(n)})
	}
	return plus, minus
}

func (pr *params) prog(p *core.Proc) {
	id, P := p.ID(), p.N()
	b := 0
	bar := func() { p.Barrier(b); b++ }

	fine := pr.levels[0]
	n := fine.n
	zlo, zhi := id*n/P, (id+1)*n/P
	rs := newRows(n)

	// Initialize: u = 0 everywhere (already zero), f = source term.
	plus, minus := sourceCells(n)
	for _, c := range plus {
		if c[2] >= zlo && c[2] < zhi {
			p.WriteF64(addr(fine.f, n, c[0], c[1], c[2]), 1)
		}
	}
	for _, c := range minus {
		if c[2] >= zlo && c[2] < zhi {
			v := p.ReadF64(addr(fine.f, n, c[0], c[1], c[2]))
			p.WriteF64(addr(fine.f, n, c[0], c[1], c[2]), v-1)
		}
	}
	bar()

	for cyc := 1; cyc <= pr.cycles; cyc++ {
		pr.vcycle(p, rs, 0, 0, &b)
		// Residual norm on the finest grid (partial per node, reduced by
		// node 0) — the published convergence history.
		norm2 := pr.residual(p, rs, 0, 0, false)
		p.WriteF64(pr.baseC+id*8, norm2)
		bar()
		if id == 0 {
			var sum float64
			for q := 0; q < P; q++ {
				sum += p.ReadF64(pr.baseC + q*8)
			}
			if cyc == 1 {
				// Slot 0 holds the norm before any cycle: ||f||_2, the
				// residual norm with u = 0.
				p.WriteF64(pr.baseR, pr.initialNorm(p, rs))
			}
			p.WriteF64(pr.baseR+cyc*8, math.Sqrt(sum))
		}
		bar()
	}
}

// initialNorm computes ||f||_2 on the finest grid (u=0 residual), read
// directly by node 0.
func (pr *params) initialNorm(p *core.Proc, rs *rows) float64 {
	fine := pr.levels[0]
	n := fine.n
	var sum float64
	row := rs.c[:n]
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			p.ReadF64s(addr(fine.f, n, 0, y, z), row)
			for _, v := range row {
				sum += v * v
			}
		}
	}
	return math.Sqrt(sum)
}

// uBuf tracks which of u0/u1 currently holds the solution per level; the
// parity is deterministic (nu1+nu2 sweeps per cycle), so every node
// agrees.
func (pr *params) bases(l, parity int) (cur, nxt int) {
	lv := pr.levels[l]
	if parity%2 == 0 {
		return lv.u0, lv.u1
	}
	return lv.u1, lv.u0
}

// vcycle runs one V-cycle level. parity selects the current u buffer and
// the final parity is returned implicitly by sweep count (callers track
// it via the fixed nu1/nu2 constants).
func (pr *params) vcycle(p *core.Proc, rs *rows, l, parity int, b *int) {
	if l == len(pr.levels)-1 {
		pr.smooth(p, rs, l, parity, nuCoars, b)
		pr.copyBack(p, rs, l, parity, nuCoars)
		return
	}
	pr.smooth(p, rs, l, parity, nu1, b)
	parity += nu1
	pr.residualStore(p, rs, l, parity, b)
	pr.restrictAndZero(p, rs, l, parity, b)
	pr.vcycle(p, rs, l+1, 0, b)
	pr.prolongCorrect(p, rs, l, parity)
	// The corrected slabs must be visible before the post-smoothing
	// sweeps read ghost planes.
	p.Barrier(*b)
	*b++
	pr.smooth(p, rs, l, parity, nu2, b)
	parity += nu2
	pr.copyBack(p, rs, l, parity, nu1+nu2)
	_ = parity
}

// copyBack ensures the level's solution ends in u0 (so parity never
// leaks across cycles): if sweeps is odd, copy cur into u0.
func (pr *params) copyBack(p *core.Proc, rs *rows, l, parityEnd, sweeps int) {
	if sweeps%2 == 0 {
		return
	}
	lv := pr.levels[l]
	n := lv.n
	id, P := p.ID(), p.N()
	zlo, zhi := id*n/P, (id+1)*n/P
	row := rs.c[:n]
	cur, _ := pr.bases(l, parityEnd)
	if cur == lv.u0 {
		return
	}
	for z := zlo; z < zhi; z++ {
		for y := 0; y < n; y++ {
			p.ReadF64s(addr(cur, n, 0, y, z), row)
			p.WriteF64s(addr(lv.u0, n, 0, y, z), row)
		}
	}
	p.Compute(float64((zhi - zlo) * n * n))
}

// smooth runs `sweeps` weighted-Jacobi sweeps with a barrier after each,
// double-buffering between u0 and u1.
func (pr *params) smooth(p *core.Proc, rs *rows, l, parity, sweeps int, b *int) {
	lv := pr.levels[l]
	n := lv.n
	id, P := p.ID(), p.N()
	zlo, zhi := id*n/P, (id+1)*n/P
	rowC, rowZm, rowZp, rowYm, rowYp := rs.c[:n], rs.zm[:n], rs.zp[:n], rs.ym[:n], rs.yp[:n]
	rowF, out := rs.f[:n], rs.out[:n]
	for s := 0; s < sweeps; s++ {
		cur, nxt := pr.bases(l, parity+s)
		for z := zlo; z < zhi; z++ {
			zm, zp := (z+n-1)%n, (z+1)%n
			for y := 0; y < n; y++ {
				ym, yp := (y+n-1)%n, (y+1)%n
				p.ReadF64s(addr(cur, n, 0, y, z), rowC)
				p.ReadF64s(addr(cur, n, 0, y, zm), rowZm)
				p.ReadF64s(addr(cur, n, 0, y, zp), rowZp)
				p.ReadF64s(addr(cur, n, 0, ym, z), rowYm)
				p.ReadF64s(addr(cur, n, 0, yp, z), rowYp)
				p.ReadF64s(addr(lv.f, n, 0, y, z), rowF)
				smoothRow(out, rowC, rowZm, rowZp, rowYm, rowYp, rowF, lv.h2)
				p.WriteF64s(addr(nxt, n, 0, y, z), out)
			}
		}
		// ~12 flops plus eight memory references per cell: stencil sweeps
		// on the paper's hardware are memory-bound, so the charge uses
		// flop-equivalents including memory-system time.
		p.Compute(float64((zhi - zlo) * n * n * 40))
		p.Barrier(*b)
		*b++
	}
}

// The stencil rows below are periodic in x. Each computes its two edge
// cells with the wrapped neighbour and its interior with c[x-1] and
// c[x+1] directly, so no cell pays a modulo or a wrap branch; reslicing
// every row to the centre row's length lets the compiler drop all but
// one of the interior's bounds checks. A level's edge is at least 2, so the edge cells exist
// (at n = 2 the interior is empty).

// smoothRow computes one row of a weighted-Jacobi sweep into out: c is
// the row, zm/zp and ym/yp its neighbours across planes and rows, f its
// right-hand side.
func smoothRow(out, c, zm, zp, ym, yp, f []float64, h2 float64) {
	n := len(c)
	out, zm, zp, ym, yp, f = out[:n], zm[:n], zp[:n], ym[:n], yp[:n], f[:n]
	out[0] = jacobi(c[n-1], c[0], c[1], ym[0], yp[0], zm[0], zp[0], f[0], h2)
	for x := 1; x < n-1; x++ {
		out[x] = jacobi(c[x-1], c[x], c[x+1], ym[x], yp[x], zm[x], zp[x], f[x], h2)
	}
	out[n-1] = jacobi(c[n-2], c[n-1], c[0], ym[n-1], yp[n-1], zm[n-1], zp[n-1], f[n-1], h2)
}

// jacobi is one cell of a sweep: its value cx, its six neighbours and its
// right-hand side f in, the smoothed value out.
func jacobi(xm, cx, xp, ym, yp, zm, zp, f, h2 float64) float64 {
	sum := xm + xp + ym + yp + zm + zp
	jac := (sum + h2*f) / 6
	return cx + omega*(jac-cx)
}

// residualRow computes one row of r = f - A u into out from the same rows
// as smoothRow, and returns norm2 plus the row's squared residuals, added
// in x order.
func residualRow(out, c, zm, zp, ym, yp, f []float64, h2, norm2 float64) float64 {
	n := len(c)
	out, zm, zp, ym, yp, f = out[:n], zm[:n], zp[:n], ym[:n], yp[:n], f[:n]
	out[0] = residualCell(c[n-1], c[0], c[1], ym[0], yp[0], zm[0], zp[0], f[0], h2)
	norm2 += out[0] * out[0]
	for x := 1; x < n-1; x++ {
		out[x] = residualCell(c[x-1], c[x], c[x+1], ym[x], yp[x], zm[x], zp[x], f[x], h2)
		norm2 += out[x] * out[x]
	}
	out[n-1] = residualCell(c[n-2], c[n-1], c[0], ym[n-1], yp[n-1], zm[n-1], zp[n-1], f[n-1], h2)
	return norm2 + out[n-1]*out[n-1]
}

// residualCell is one cell of r = f - A u.
func residualCell(xm, cx, xp, ym, yp, zm, zp, f, h2 float64) float64 {
	au := (6*cx - xm - xp - ym - yp - zm - zp) / h2
	return f - au
}

// residual computes r = f - A u on level l (A = -∇² with the grid
// scaling), optionally storing it into the level's r array; it returns
// the local partial squared norm.
func (pr *params) residual(p *core.Proc, rs *rows, l, parity int, store bool) float64 {
	lv := pr.levels[l]
	n := lv.n
	id, P := p.ID(), p.N()
	zlo, zhi := id*n/P, (id+1)*n/P
	cur, _ := pr.bases(l, parity)
	rowC, rowZm, rowZp, rowYm, rowYp := rs.c[:n], rs.zm[:n], rs.zp[:n], rs.ym[:n], rs.yp[:n]
	rowF, out := rs.f[:n], rs.out[:n]
	var norm2 float64
	for z := zlo; z < zhi; z++ {
		zm, zp := (z+n-1)%n, (z+1)%n
		for y := 0; y < n; y++ {
			ym, yp := (y+n-1)%n, (y+1)%n
			p.ReadF64s(addr(cur, n, 0, y, z), rowC)
			p.ReadF64s(addr(cur, n, 0, y, zm), rowZm)
			p.ReadF64s(addr(cur, n, 0, y, zp), rowZp)
			p.ReadF64s(addr(cur, n, 0, ym, z), rowYm)
			p.ReadF64s(addr(cur, n, 0, yp, z), rowYp)
			p.ReadF64s(addr(lv.f, n, 0, y, z), rowF)
			norm2 = residualRow(out, rowC, rowZm, rowZp, rowYm, rowYp, rowF, lv.h2, norm2)
			if store {
				p.WriteF64s(addr(lv.r, n, 0, y, z), out)
			}
		}
	}
	p.Compute(float64((zhi - zlo) * n * n * 40))
	return norm2
}

// residualStore computes and publishes the residual, with a barrier so
// restriction sees every slab.
func (pr *params) residualStore(p *core.Proc, rs *rows, l, parity int, b *int) {
	pr.residual(p, rs, l, parity, true)
	p.Barrier(*b)
	*b++
}

// restrictAndZero averages 2x2x2 fine residual cells into the coarse
// right-hand side and zeroes the coarse solution buffers. The nested
// partition keeps this slab-local.
func (pr *params) restrictAndZero(p *core.Proc, rs *rows, l, parity int, b *int) {
	fineLv, coarse := pr.levels[l], pr.levels[l+1]
	nf, nc := fineLv.n, coarse.n
	id, P := p.ID(), p.N()
	zlo, zhi := id*nc/P, (id+1)*nc/P
	rowA, rowB, rowA2, rowB2 := rs.c[:nf], rs.zm[:nf], rs.zp[:nf], rs.ym[:nf]
	out, zero := rs.out[:nc], rs.zero[:nc]
	for z := zlo; z < zhi; z++ {
		for y := 0; y < nc; y++ {
			p.ReadF64s(addr(fineLv.r, nf, 0, 2*y, 2*z), rowA)
			p.ReadF64s(addr(fineLv.r, nf, 0, 2*y+1, 2*z), rowB)
			p.ReadF64s(addr(fineLv.r, nf, 0, 2*y, 2*z+1), rowA2)
			p.ReadF64s(addr(fineLv.r, nf, 0, 2*y+1, 2*z+1), rowB2)
			for x := 0; x < nc; x++ {
				out[x] = (rowA[2*x] + rowA[2*x+1] + rowB[2*x] + rowB[2*x+1] +
					rowA2[2*x] + rowA2[2*x+1] + rowB2[2*x] + rowB2[2*x+1]) / 8
			}
			p.WriteF64s(addr(coarse.f, nc, 0, y, z), out)
			p.WriteF64s(addr(coarse.u0, nc, 0, y, z), zero)
			p.WriteF64s(addr(coarse.u1, nc, 0, y, z), zero)
		}
	}
	p.Compute(float64((zhi - zlo) * nc * nc * 10))
	p.Barrier(*b)
	*b++
}

// prolongCorrect injects each coarse correction cell into its eight fine
// children: u_fine += e_coarse. Slab-local by the nested partition; the
// coarse solution was left in u0 by copyBack.
func (pr *params) prolongCorrect(p *core.Proc, rs *rows, l, parity int) {
	fineLv, coarse := pr.levels[l], pr.levels[l+1]
	nf, nc := fineLv.n, coarse.n
	id, P := p.ID(), p.N()
	zlo, zhi := id*nf/P, (id+1)*nf/P
	cur, _ := pr.bases(l, parity)
	rowE, rowU := rs.c[:nc], rs.zm[:nf]
	for z := zlo; z < zhi; z++ {
		for y := 0; y < nf; y++ {
			p.ReadF64s(addr(coarse.u0, nc, 0, y/2, z/2), rowE)
			p.ReadF64s(addr(cur, nf, 0, y, z), rowU)
			for x := 0; x < nf; x++ {
				rowU[x] += rowE[x/2]
			}
			p.WriteF64s(addr(cur, nf, 0, y, z), rowU)
		}
	}
	p.Compute(float64((zhi - zlo) * nf * nf * 2))
}
