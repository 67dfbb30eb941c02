package mg

import (
	"bytes"
	"math"
	"testing"

	"sdsm/internal/core"
	"sdsm/internal/wal"
)

func run(t *testing.T, n, cycles, nodes int) (*core.Report, *params) {
	return runFloor(t, n, cycles, nodes, 4)
}

// runFloor pins the V-cycle depth so runs with different node counts are
// comparable.
func runFloor(t *testing.T, n, cycles, nodes, floor int) (*core.Report, *params) {
	t.Helper()
	w := newWithFloor(n, cycles, nodes, 4096, floor)
	cfg := w.BaseConfig(nodes)
	cfg.Protocol = wal.ProtocolNone
	rep, err := core.Run(cfg, w.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Check(rep.MemoryImage()); err != nil {
		t.Fatal(err)
	}
	return rep, layout(n, cycles, nodes, 4096, floor)
}

func f64(img []byte, off int) float64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(img[off+i]) << (8 * i)
	}
	return math.Float64frombits(u)
}

func TestVCyclesReduceResidual(t *testing.T) {
	rep, pr := run(t, 16, 4, 4)
	img := rep.MemoryImage()
	prev := f64(img, pr.baseR)
	if prev <= 0 {
		t.Fatalf("initial norm %g", prev)
	}
	for c := 1; c <= 4; c++ {
		cur := f64(img, pr.baseR+c*8)
		if cur >= prev {
			t.Fatalf("cycle %d: norm %g did not decrease from %g", c, cur, prev)
		}
		prev = cur
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	repSeq, prSeq := run(t, 16, 3, 1)
	repPar, prPar := run(t, 16, 3, 4)
	// The V-cycle math is deterministic; only the norm reduction's
	// summation grouping differs between node counts (1 ulp).
	for c := 0; c <= 3; c++ {
		a := f64(repSeq.MemoryImage(), prSeq.baseR+c*8)
		b := f64(repPar.MemoryImage(), prPar.baseR+c*8)
		if math.Abs(a-b) > 1e-12*math.Abs(a) {
			t.Fatalf("cycle %d: sequential norm %g != parallel %g", c, a, b)
		}
	}
	// The solution grids agree too (identical layout for equal geometry).
	fineBytes := 16 * 16 * 16 * 8
	if !bytes.Equal(repSeq.MemoryImage()[:fineBytes], repPar.MemoryImage()[:fineBytes]) {
		t.Fatal("solution grids differ")
	}
}

func TestOpsPerRunMatchesExecution(t *testing.T) {
	w := New(16, 2, 4, 4096)
	cfg := w.BaseConfig(4)
	cfg.Protocol = wal.ProtocolNone
	rep, err := core.Run(cfg, w.Prog)
	if err != nil {
		t.Fatal(err)
	}
	pr := layout(16, 2, 4, 4096, 4)
	want := int64(pr.OpsPerRun())
	if got := rep.Stats[1].Barriers; got != want {
		t.Fatalf("barriers executed = %d, OpsPerRun predicts %d", got, want)
	}
	if w.CrashOp <= 0 || w.CrashOp >= pr.OpsPerRun() {
		t.Fatalf("CrashOp %d outside run of %d ops", w.CrashOp, pr.OpsPerRun())
	}
}

func TestNewValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(12, 1, 4, 4096) },
		func() { New(16, 1, 3, 4096) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestLevelsStopAtPartitionLimit(t *testing.T) {
	pr := layout(32, 1, 8, 4096, 8)
	// 32 -> 16 -> 8 with floor 8.
	if len(pr.levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(pr.levels))
	}
	pr = layout(16, 1, 4, 4096, 4)
	// 16 -> 8 -> 4 with floor 4.
	if len(pr.levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(pr.levels))
	}
}

// BenchmarkSolo runs the ScaleMedium MG problem (bench.Workloads'
// parameters) on one node under protocol None: the kernel's host cost
// without coherence traffic, which the benchmark reports as
// apps.solo_pass_s.
func BenchmarkSolo(b *testing.B) {
	w := New(64, 4, 1, 4096)
	cfg := w.BaseConfig(1)
	cfg.Protocol = wal.ProtocolNone
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(cfg, w.Prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmoothRow is one row of a Jacobi sweep at the ScaleMedium
// finest edge, the innermost loop of the kernel.
func BenchmarkSmoothRow(b *testing.B) {
	const n = 64
	rows := make([][]float64, 7)
	for r := range rows {
		rows[r] = make([]float64, n)
		for x := range rows[r] {
			rows[r][x] = math.Sin(float64(r*n + x))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smoothRow(rows[0], rows[1], rows[2], rows[3], rows[4], rows[5], rows[6], 1.0/(n*n))
	}
}
