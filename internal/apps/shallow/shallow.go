// Package shallow implements the Shallow workload of the paper's
// evaluation — the NCAR shallow-water weather prediction kernel
// (Sadourny's scheme on a periodic staggered grid, the classic "swm"
// benchmark). The grid is partitioned by rows; the three phases of every
// time step (mass fluxes and potential vorticity; new velocity and
// pressure fields; Robert-Asselin time smoothing) are separated by
// barriers and exchange boundary rows with the neighbouring partitions.
package shallow

import (
	"fmt"
	"math"

	"sdsm/internal/apps"
	"sdsm/internal/core"
)

// Physical and numerical constants of the original swm kernel.
const (
	dtInit = 90.0
	dx     = 1e5
	dy     = 1e5
	aAmp   = 1e6
	alpha  = 0.001
)

type params struct {
	m, n     int // grid rows, columns
	steps    int
	nodes    int
	pageSize int

	// byte bases of the 13 field arrays
	u, v, p, unew, vnew, pnew, uold, vold, pold, cu, cv, zf, h int
	baseC                                                      int // per-node diagnostic partials (mass, energy)
	baseR                                                      int // per-step diagnostics (mass, energy)
	total                                                      int
}

func layout(m, n, steps, nodes, pageSize int) *params {
	pr := &params{m: m, n: n, steps: steps, nodes: nodes, pageSize: pageSize}
	off := 0
	alloc := func(bytes int) int {
		base := off
		off = apps.AlignUp(off+bytes, pageSize)
		return base
	}
	grid := m * n * 8
	pr.u = alloc(grid)
	pr.v = alloc(grid)
	pr.p = alloc(grid)
	pr.unew = alloc(grid)
	pr.vnew = alloc(grid)
	pr.pnew = alloc(grid)
	pr.uold = alloc(grid)
	pr.vold = alloc(grid)
	pr.pold = alloc(grid)
	pr.cu = alloc(grid)
	pr.cv = alloc(grid)
	pr.zf = alloc(grid)
	pr.h = alloc(grid)
	pr.baseC = alloc(nodes * 2 * 8)
	pr.baseR = alloc(steps * 2 * 8)
	pr.total = off
	return pr
}

func (pr *params) fields() []int {
	return []int{pr.u, pr.v, pr.p, pr.unew, pr.vnew, pr.pnew,
		pr.uold, pr.vold, pr.pold, pr.cu, pr.cv, pr.zf, pr.h}
}

// at is the byte address of element (i,j) of the array at base.
func (pr *params) at(base, i, j int) int { return base + (i*pr.n+j)*8 }

func (pr *params) homes() []int {
	return apps.BlockHomesForRegions(pr.total/pr.pageSize, pr.pageSize, pr.nodes, func(node int) [][2]int {
		ilo, ihi := node*pr.m/pr.nodes, (node+1)*pr.m/pr.nodes
		var rs [][2]int
		for _, base := range pr.fields() {
			rs = append(rs, [2]int{pr.at(base, ilo, 0), pr.at(base, ihi, 0)})
		}
		rs = append(rs, [2]int{pr.baseC + node*16, pr.baseC + (node+1)*16})
		if node == 0 {
			rs = append(rs, [2]int{pr.baseR, pr.baseR + pr.steps*16})
		}
		return rs
	})
}

// OpsPerRun counts the synchronization operations per run.
func (pr *params) OpsPerRun() int32 {
	// init barrier + per step: 2 phase barriers, 1 barrier after the
	// smoothing/diagnostic-partial phase, 1 after the reduction.
	return int32(1 + pr.steps*4)
}

// New builds the Shallow workload: `steps` time steps on an m x n
// periodic grid. m must be divisible by nodes.
func New(m, n, steps, nodes, pageSize int) *apps.Workload {
	if m%nodes != 0 || m < 2 || n < 2 {
		panic(fmt.Sprintf("shallow: grid %dx%d not partitionable over %d nodes", m, n, nodes))
	}
	pr := layout(m, n, steps, nodes, pageSize)
	return &apps.Workload{
		Name:          "Shallow",
		Sync:          "barriers",
		DataSet:       fmt.Sprintf("%d iterations on %dx%d grid", steps, m, n),
		PageSize:      pageSize,
		Pages:         pr.total / pageSize,
		Homes:         pr.homes(),
		Deterministic: true,
		CrashOp:       pr.OpsPerRun() * 4 / 5,
		Prog:          pr.prog,
		Check: func(img []byte) error {
			// Mass (total pressure) must be conserved by the scheme.
			m0 := apps.F64at(img, pr.baseR)
			if m0 <= 0 || math.IsNaN(m0) {
				return fmt.Errorf("shallow: degenerate initial mass %g", m0)
			}
			for s := 1; s < pr.steps; s++ {
				ms := apps.F64at(img, pr.baseR+s*16)
				if math.Abs(ms-m0) > 1e-6*m0 {
					return fmt.Errorf("shallow: mass drifted %g -> %g at step %d", m0, ms, s)
				}
				if e := apps.F64at(img, pr.baseR+s*16+8); math.IsNaN(e) || e <= 0 {
					return fmt.Errorf("shallow: degenerate energy %g at step %d", e, s)
				}
			}
			return nil
		},
	}
}

func (pr *params) prog(p *core.Proc) {
	id, P := p.ID(), p.N()
	m, n := pr.m, pr.n
	ilo, ihi := id*m/P, (id+1)*m/P
	b := 0
	bar := func() { p.Barrier(b); b++ }

	di := 2 * math.Pi / float64(m)
	dj := 2 * math.Pi / float64(n)
	el := float64(n) * dx
	pcf := math.Pi * math.Pi * aAmp * aAmp / (el * el)
	fsdx := 4 / dx
	fsdy := 4 / dy

	// The stream function is aAmp·sin((i+.5)·di)·sin((j+.5)·dj) and the
	// pressure pcf·(cos(2i·di)+cos(2j·dj)) + 50000: the column factors are
	// tabulated once (sinJ up to j = n, for psi(i, j+1)) and the row factors
	// taken once per row.
	sinJ := make([]float64, n+1)
	for j := range sinJ {
		sinJ[j] = math.Sin((float64(j) + .5) * dj)
	}
	cosJ := make([]float64, n)
	for j := range cosJ {
		cosJ[j] = math.Cos(2 * float64(j) * dj)
	}
	psi := func(si, sj float64) float64 { return aAmp * si * sj }

	// --- Initialization of u, v, p (and the old copies) on own rows.
	row := make([]float64, n)
	for i := ilo; i < ihi; i++ {
		cosI := math.Cos(2 * float64(i) * di)
		sinI := math.Sin((float64(i) + .5) * di)
		sinIp := math.Sin((float64(i+1) + .5) * di)
		for j := 0; j < n; j++ {
			row[j] = pcf*(cosI+cosJ[j]) + 50000
		}
		p.WriteF64s(pr.at(pr.p, i, 0), row)
		p.WriteF64s(pr.at(pr.pold, i, 0), row)
		for j := 0; j < n; j++ {
			row[j] = -(psi(sinI, sinJ[j+1]) - psi(sinI, sinJ[j])) / dy
		}
		p.WriteF64s(pr.at(pr.u, i, 0), row)
		p.WriteF64s(pr.at(pr.uold, i, 0), row)
		for j := 0; j < n; j++ {
			row[j] = (psi(sinIp, sinJ[j]) - psi(sinI, sinJ[j])) / dx
		}
		p.WriteF64s(pr.at(pr.v, i, 0), row)
		p.WriteF64s(pr.at(pr.vold, i, 0), row)
	}
	p.Compute(float64((ihi - ilo) * n * 30))
	bar()

	rd := func(base, i int, dst []float64) { p.ReadF64s(pr.at(base, (i+m)%m, 0), dst) }
	tdt := dtInit

	rowU := make([]float64, n)
	rowUm := make([]float64, n)
	rowV := make([]float64, n)
	rowVm := make([]float64, n)
	rowP := make([]float64, n)
	rowPm := make([]float64, n)
	rowUp := make([]float64, n)
	rowVp := make([]float64, n)
	outCU := make([]float64, n)
	outCV := make([]float64, n)
	outZ := make([]float64, n)
	outH := make([]float64, n)
	// Phase 2 reads phase 1's rows back into its output buffers.
	rowCU, rowCV, rowZ, rowH := outCU, outCV, outZ, outH
	rowCUp := make([]float64, n)
	rowCVm := make([]float64, n)
	rowCVp := make([]float64, n)
	rowZp := make([]float64, n)
	rowHm := make([]float64, n)
	rowOld := make([]float64, n)
	outNew := make([]float64, n)
	cur := make([]float64, n)
	old := make([]float64, n)
	nw := make([]float64, n)

	// The grid is periodic in j. Each j-loop below computes its wrapped
	// edge cells apart from its interior, which reads j-1 and j+1
	// directly, so no cell pays a modulo (n ≥ 2: both edges exist).
	flux := func(j, jm, jp int) {
		outCU[j] = .5 * (rowP[j] + rowPm[j]) * rowU[j]
		outCV[j] = .5 * (rowP[j] + rowP[jm]) * rowV[j]
		outZ[j] = (fsdx*(rowV[j]-rowVm[j]) - fsdy*(rowU[j]-rowU[jm])) /
			(rowPm[jm] + rowP[jm] + rowP[j] + rowPm[j])
		outH[j] = rowP[j] + .25*(rowUp[j]*rowUp[j]+rowU[j]*rowU[j]+
			rowV[jp]*rowV[jp]+rowV[j]*rowV[j])
	}

	for step := 0; step < pr.steps; step++ {
		// --- Phase 1: mass fluxes cu, cv, potential vorticity z, and
		// the Bernoulli quantity h.
		for i := ilo; i < ihi; i++ {
			rd(pr.u, i, rowU)
			rd(pr.u, i-1, rowUm)
			rd(pr.v, i, rowV)
			rd(pr.v, i-1, rowVm)
			rd(pr.p, i, rowP)
			rd(pr.p, i-1, rowPm)
			rd(pr.u, i+1, rowUp)
			rd(pr.v, i+1, rowVp)
			flux(0, n-1, 1)
			for j := 1; j < n-1; j++ {
				flux(j, j-1, j+1)
			}
			flux(n-1, n-2, 0)
			p.WriteF64s(pr.at(pr.cu, i, 0), outCU)
			p.WriteF64s(pr.at(pr.cv, i, 0), outCV)
			p.WriteF64s(pr.at(pr.zf, i, 0), outZ)
			p.WriteF64s(pr.at(pr.h, i, 0), outH)
		}
		// Memory-bound stencil: flop-equivalents include memory time.
		p.Compute(float64((ihi - ilo) * n * 60))
		bar()

		// --- Phase 2: new u, v, p.
		tdts8 := tdt / 8
		tdtsdx := tdt / dx
		tdtsdy := tdt / dy
		newU := func(j, jp int) {
			outNew[j] = rowOld[j] + tdts8*(rowZ[jp]+rowZ[j])*
				(rowCV[jp]+rowCVm[jp]+rowCVm[j]+rowCV[j]) -
				tdtsdx*(rowH[j]-rowHm[j])
		}
		newV := func(j, jm int) {
			outNew[j] = rowOld[j] - tdts8*(rowZp[j]+rowZ[j])*
				(rowCUp[j]+rowCU[j]+rowCU[jm]+rowCUp[jm]) -
				tdtsdy*(rowH[j]-rowH[jm])
		}
		newP := func(j, jp int) {
			outNew[j] = rowOld[j] - tdtsdx*(rowCUp[j]-rowCU[j]) -
				tdtsdy*(rowCV[jp]-rowCV[j])
		}
		for i := ilo; i < ihi; i++ {
			rd(pr.cu, i, rowCU)
			rd(pr.cu, i+1, rowCUp)
			rd(pr.cv, i, rowCV)
			rd(pr.cv, i-1, rowCVm)
			rd(pr.cv, i+1, rowCVp)
			rd(pr.zf, i, rowZ)
			rd(pr.zf, i+1, rowZp)
			rd(pr.h, i, rowH)
			rd(pr.h, i-1, rowHm)

			rd(pr.uold, i, rowOld)
			for j := 0; j < n-1; j++ {
				newU(j, j+1)
			}
			newU(n-1, 0)
			p.WriteF64s(pr.at(pr.unew, i, 0), outNew)

			rd(pr.vold, i, rowOld)
			newV(0, n-1)
			for j := 1; j < n; j++ {
				newV(j, j-1)
			}
			p.WriteF64s(pr.at(pr.vnew, i, 0), outNew)

			rd(pr.pold, i, rowOld)
			for j := 0; j < n-1; j++ {
				newP(j, j+1)
			}
			newP(n-1, 0)
			p.WriteF64s(pr.at(pr.pnew, i, 0), outNew)
		}
		p.Compute(float64((ihi - ilo) * n * 90))
		bar()

		// --- Phase 3: Robert-Asselin time smoothing (all row-local) and
		// the per-node diagnostic partials.
		var mass, energy float64
		smooth := func(curB, oldB, newB, i int) {
			rd(curB, i, cur)
			rd(oldB, i, old)
			rd(newB, i, nw)
			for j := 0; j < n; j++ {
				old[j] = cur[j] + alpha*(nw[j]-2*cur[j]+old[j])
			}
			p.WriteF64s(pr.at(oldB, i, 0), old)
			p.WriteF64s(pr.at(curB, i, 0), nw)
		}
		first := step == 0
		for i := ilo; i < ihi; i++ {
			if first {
				// First step: no smoothing; the old fields keep the
				// initial values and the current fields advance.
				for _, pair := range [][2]int{{pr.u, pr.unew}, {pr.v, pr.vnew}, {pr.p, pr.pnew}} {
					rd(pair[1], i, nw)
					p.WriteF64s(pr.at(pair[0], i, 0), nw)
				}
			} else {
				smooth(pr.u, pr.uold, pr.unew, i)
				smooth(pr.v, pr.vold, pr.vnew, i)
				smooth(pr.p, pr.pold, pr.pnew, i)
			}
			rd(pr.pnew, i, nw)
			rd(pr.unew, i, cur)
			rd(pr.vnew, i, old)
			for j := 0; j < n; j++ {
				mass += nw[j]
				energy += .5*nw[j]*(cur[j]*cur[j]+old[j]*old[j]) + .5*nw[j]*nw[j]
			}
		}
		if first {
			tdt = 2 * dtInit
		}
		p.Compute(float64((ihi - ilo) * n * 45))
		p.WriteF64(pr.baseC+id*16, mass)
		p.WriteF64(pr.baseC+id*16+8, energy)
		bar()

		if id == 0 {
			var tm, te float64
			for q := 0; q < P; q++ {
				tm += p.ReadF64(pr.baseC + q*16)
				te += p.ReadF64(pr.baseC + q*16 + 8)
			}
			p.WriteF64(pr.baseR+step*16, tm)
			p.WriteF64(pr.baseR+step*16+8, te)
		}
		bar()
	}
}
