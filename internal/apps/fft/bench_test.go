package fft

import (
	"math/rand"
	"testing"

	"sdsm/internal/core"
	"sdsm/internal/wal"
)

func benchSignal(n int) (re, im []float64) {
	rng := rand.New(rand.NewSource(7))
	re = make([]float64, n)
	im = make([]float64, n)
	for i := range re {
		re[i], im[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	return re, im
}

func BenchmarkTransform64(b *testing.B) {
	re, im := benchSignal(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Transform(re, im, false)
	}
}

func BenchmarkTransform1024(b *testing.B) {
	re, im := benchSignal(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Transform(re, im, false)
	}
}

// BenchmarkSolo runs the ScaleMedium 3D-FFT problem (bench.Workloads'
// parameters) on one node under protocol None: the kernel's host cost
// without coherence traffic, which the benchmark reports as
// apps.solo_pass_s.
func BenchmarkSolo(b *testing.B) {
	w := New(32, 32, 32, 5, 1, 4096)
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
