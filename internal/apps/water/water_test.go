package water

import (
	"math"
	"testing"

	"sdsm/internal/core"
	"sdsm/internal/wal"
)

func run(t *testing.T, n, steps, nodes int) (*core.Report, *params) {
	t.Helper()
	w := New(n, steps, nodes, 4096)
	cfg := w.BaseConfig(nodes)
	cfg.Protocol = wal.ProtocolNone
	rep, err := core.Run(cfg, w.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Check(rep.MemoryImage()); err != nil {
		t.Fatal(err)
	}
	return rep, layout(n, steps, nodes, 4096)
}

func f64(img []byte, off int) float64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(img[off+i]) << (8 * i)
	}
	return math.Float64frombits(u)
}

func TestEnergyConservation(t *testing.T) {
	rep, pr := run(t, 64, 10, 4)
	img := rep.MemoryImage()
	e0 := f64(img, pr.baseR+16)
	if e0 == 0 || math.IsNaN(e0) {
		t.Fatalf("initial energy %g", e0)
	}
	for s := 1; s < 10; s++ {
		e := f64(img, pr.baseR+s*24+16)
		if math.Abs(e-e0) > 0.01*math.Abs(e0) {
			t.Fatalf("energy drift at step %d: %g vs %g", s, e, e0)
		}
	}
	// Dynamics happened: kinetic energy became non-zero.
	if k := f64(img, pr.baseR+9*24+8); k <= 0 {
		t.Fatalf("kinetic energy %g after 10 steps", k)
	}
}

func TestParallelMatchesSequentialWithinTolerance(t *testing.T) {
	repSeq, prSeq := run(t, 32, 6, 1)
	repPar, prPar := run(t, 32, 6, 4)
	// Force accumulation order differs across partitions, so agreement
	// is to rounding accumulation, not bit-exact.
	for s := 0; s < 6; s++ {
		for c := 0; c < 3; c++ {
			a := f64(repSeq.MemoryImage(), prSeq.baseR+s*24+8*c)
			b := f64(repPar.MemoryImage(), prPar.baseR+s*24+8*c)
			scale := math.Max(1, math.Abs(a))
			if math.Abs(a-b) > 1e-8*scale {
				t.Fatalf("step %d component %d: %g vs %g", s, c, a, b)
			}
		}
	}
}

func TestLocksAreExercised(t *testing.T) {
	rep, _ := run(t, 32, 4, 4)
	for i, s := range rep.Stats {
		if s.LockAcquires == 0 {
			t.Fatalf("node %d never acquired a lock; Water must use locks", i)
		}
		if s.Barriers == 0 {
			t.Fatalf("node %d never hit a barrier", i)
		}
	}
}

func TestMomentumConservation(t *testing.T) {
	// Newton's third law in the half-shell scatter: total momentum stays
	// (near) zero from the zero-velocity start.
	rep, pr := run(t, 32, 5, 2)
	img := rep.MemoryImage()
	var px, py, pz float64
	for i := 0; i < 32; i++ {
		px += f64(img, pr.vel+i*24)
		py += f64(img, pr.vel+i*24+8)
		pz += f64(img, pr.vel+i*24+16)
	}
	for _, v := range []float64{px, py, pz} {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("net momentum (%g,%g,%g) nonzero", px, py, pz)
		}
	}
}

func TestNewValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(30, 1, 4, 4096) }, // not divisible
		func() { New(4, 1, 4, 4096) },  // too few per node
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

func TestWorkloadMetadata(t *testing.T) {
	w := New(64, 5, 4, 4096)
	if w.Sync != "locks and barriers" || w.Deterministic {
		t.Fatalf("metadata: %+v", w)
	}
	if w.CrashOp <= 0 {
		t.Fatal("CrashOp missing")
	}
}

// BenchmarkSolo runs the ScaleMedium Water problem (bench.Workloads'
// parameters) on one node under protocol None: the kernel's host cost
// without coherence traffic, which the benchmark reports as
// apps.solo_pass_s.
func BenchmarkSolo(b *testing.B) {
	w := New(256, 6, 1, 4096)
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
