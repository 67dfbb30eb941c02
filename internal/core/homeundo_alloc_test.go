package core_test

import (
	"runtime"
	"testing"

	"sdsm/internal/apps"
	"sdsm/internal/bench"
	"sdsm/internal/core"
	"sdsm/internal/racedetect"
	"sdsm/internal/wal"
)

// A home page keeps undo history only once another node has fetched it,
// so turning HomeUndo on adds a bounded share to a failure-free CCL run's
// allocation. With a twin and an entry for every home interval, the same
// ScaleMedium runs allocated 6.07× (Shallow) and 4.21× (MG) of the run
// without history; arming at the first serve measured 1.27× and 1.86×,
// and cutting the entries from one undo log per home 1.29× and 1.85×.
// Measured like the benchmark does: TotalAlloc around a warmed second run.
func TestHomeUndoAllocationOverhead(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation volumes are not meaningful under -race")
	}
	const nodes = 8
	for _, tc := range []struct {
		app   string
		limit float64
	}{
		{"Shallow", 1.5},
		{"MG", 2.5},
	} {
		t.Run(tc.app, func(t *testing.T) {
			var w *apps.Workload
			for _, cand := range bench.Workloads(nodes, bench.ScaleMedium) {
				if cand.Name == tc.app {
					w = cand
				}
			}
			if w == nil {
				t.Fatalf("no workload %q", tc.app)
			}
			alloc := func(homeUndo bool) uint64 {
				cfg := w.BaseConfig(nodes)
				cfg.Protocol = wal.ProtocolCCL
				cfg.HomeUndo = homeUndo
				run := func() {
					if _, err := core.Run(cfg, w.Prog); err != nil {
						t.Fatal(err)
					}
				}
				run()
				runtime.GC()
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				run()
				runtime.ReadMemStats(&m1)
				return m1.TotalAlloc - m0.TotalAlloc
			}
			on, off := alloc(true), alloc(false)
			ratio := float64(on) / float64(off)
			t.Logf("%s/CCL: %.1f MB with HomeUndo, %.1f MB without (%.2f×)", tc.app, float64(on)/1e6, float64(off)/1e6, ratio)
			if ratio > tc.limit {
				t.Errorf("HomeUndo allocates %.2f× the run without it, want at most %.1f×", ratio, tc.limit)
			}
		})
	}
}
