package shallow

import (
	"bytes"
	"math"
	"testing"

	"sdsm/internal/core"
	"sdsm/internal/wal"
)

func run(t *testing.T, m, n, steps, nodes int) (*core.Report, *params) {
	t.Helper()
	w := New(m, n, steps, nodes, 4096)
	cfg := w.BaseConfig(nodes)
	cfg.Protocol = wal.ProtocolNone
	rep, err := core.Run(cfg, w.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Check(rep.MemoryImage()); err != nil {
		t.Fatal(err)
	}
	return rep, layout(m, n, steps, nodes, 4096)
}

func f64(img []byte, off int) float64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(img[off+i]) << (8 * i)
	}
	return math.Float64frombits(u)
}

func TestMassConservation(t *testing.T) {
	rep, pr := run(t, 32, 32, 8, 4)
	img := rep.MemoryImage()
	m0 := f64(img, pr.baseR)
	for s := 1; s < 8; s++ {
		ms := f64(img, pr.baseR+s*16)
		if math.Abs(ms-m0) > 1e-9*m0 {
			t.Fatalf("mass drift at step %d: %g vs %g", s, ms, m0)
		}
	}
}

func TestFieldsEvolve(t *testing.T) {
	rep, pr := run(t, 16, 16, 4, 2)
	img := rep.MemoryImage()
	// Velocity fields must be non-trivial and changing.
	var sum float64
	for j := 0; j < 16; j++ {
		sum += math.Abs(f64(img, pr.at(pr.u, 3, j)))
	}
	if sum == 0 {
		t.Fatal("u field identically zero")
	}
	// Energy at the last step differs from the first (dynamics happened).
	e0 := f64(img, pr.baseR+8)
	eL := f64(img, pr.baseR+3*16+8)
	if e0 == eL {
		t.Fatal("energy did not evolve")
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	repSeq, prSeq := run(t, 16, 16, 5, 1)
	repPar, _ := run(t, 16, 16, 5, 4)
	// The field arrays are element-deterministic: exact equality.
	end := prSeq.baseC // all field arrays precede the diagnostics
	if !bytes.Equal(repSeq.MemoryImage()[:end], repPar.MemoryImage()[:end]) {
		t.Fatal("field arrays differ between sequential and parallel runs")
	}
	// Diagnostics may differ by reduction grouping only.
	for s := 0; s < 5; s++ {
		a := f64(repSeq.MemoryImage(), prSeq.baseR+s*16)
		b := f64(repPar.MemoryImage(), prSeq.baseR+s*16)
		if math.Abs(a-b) > 1e-9*math.Abs(a) {
			t.Fatalf("step %d mass: %g vs %g", s, a, b)
		}
	}
}

func TestOpsPerRunMatchesExecution(t *testing.T) {
	w := New(16, 16, 3, 4, 4096)
	cfg := w.BaseConfig(4)
	cfg.Protocol = wal.ProtocolNone
	rep, err := core.Run(cfg, w.Prog)
	if err != nil {
		t.Fatal(err)
	}
	pr := layout(16, 16, 3, 4, 4096)
	if got := rep.Stats[2].Barriers; got != int64(pr.OpsPerRun()) {
		t.Fatalf("barriers = %d, predicted %d", got, pr.OpsPerRun())
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(10, 16, 1, 4, 4096) // 10 % 4 != 0
}

// BenchmarkSolo runs the ScaleMedium Shallow problem (bench.Workloads'
// parameters) on one node under protocol None: the kernel's host cost
// without coherence traffic, which the benchmark reports as
// apps.solo_pass_s.
func BenchmarkSolo(b *testing.B) {
	w := New(256, 256, 12, 1, 4096)
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
