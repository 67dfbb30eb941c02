package apps_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"sdsm/internal/apps"
	"sdsm/internal/apps/fft"
	"sdsm/internal/apps/mg"
	"sdsm/internal/apps/shallow"
	"sdsm/internal/apps/water"
	"sdsm/internal/core"
	"sdsm/internal/racedetect"
	"sdsm/internal/wal"
)

// soloRun counts what one run of w on one node under protocol None
// allocates, with the collector held off (arena's pools empty on a
// collection, and refilling them would count as the run's cost), and the
// barriers it took.
func soloRun(t *testing.T, w *apps.Workload) (allocs uint64, barriers int64) {
	t.Helper()
	cfg := w.BaseConfig(1)
	cfg.Protocol = wal.ProtocolNone
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := core.Run(cfg, w.Prog)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return after.Mallocs - before.Mallocs, rep.Stats[0].Barriers
}

// A kernel's buffers belong to its node's program, made once per run:
// what a longer run adds is the barriers' own cost (a fraction of a slab
// block each), not rows made per sweep or per force phase, nor manager
// state per barrier number. Each kernel runs at ScaleSmall on one node at
// 2 and at 4 iterations (cycles or steps), three times each, and the
// fewest allocations the longer run adds are pinned per barrier it adds.
// Measured on a 2-core host at GOMAXPROCS 1, 2 and 8: 3D-FFT 0.17, MG
// 0.35, Shallow 0.38, Water 0.12, single runs up to 0.5. With a manager
// round state made per barrier number every kernel adds about 3.5, with
// MG's rows made per call MG adds 7.0, and with Water's force arrays made
// per phase Water adds 4.4. The test takes about 0.05 s.
func TestKernelAllocationsPerBarrier(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ps = 4096
	for _, tc := range []struct {
		build func(iters int) *apps.Workload
		want  float64
	}{
		{func(i int) *apps.Workload { return fft.New(16, 16, 16, i, 1, ps) }, 0.75},
		{func(i int) *apps.Workload { return mg.New(16, i, 1, ps) }, 0.5},
		{func(i int) *apps.Workload { return shallow.New(16, 16, i, 1, ps) }, 0.75},
		{func(i int) *apps.Workload { return water.New(32, i, 1, ps) }, 0.75},
	} {
		short, long := tc.build(2), tc.build(4)
		soloRun(t, short) // warm the arena's pools
		a2, b2 := soloRun(t, short)
		a4, b4 := soloRun(t, long)
		for range 2 { // a run the scheduler made costlier than the others is noise
			a, _ := soloRun(t, short)
			a2 = min(a2, a)
			a, _ = soloRun(t, long)
			a4 = min(a4, a)
		}
		perBarrier := (float64(a4) - float64(a2)) / float64(b4-b2)
		t.Logf("%s: %.2f allocations per added barrier", short.Name, perBarrier)
		if perBarrier > tc.want {
			t.Errorf("%s: %.2f allocations per added barrier, want <= %v (%d allocs at %d barriers, %d at %d)",
				short.Name, perBarrier, tc.want, a2, b2, a4, b4)
		}
	}
}
