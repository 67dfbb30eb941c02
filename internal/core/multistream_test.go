package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"sdsm/internal/fault"
	"sdsm/internal/recovery"
	"sdsm/internal/wal"
)

// The multi-stream WAL soak: with LogStreams > 1 the logging layer
// routes records across parallel streams, stamps LSN-vectors, and (under
// CCL) group-commits across diff-less releases — none of which may
// change the memory image a run produces, failure-free or crashed.

// TestMultiStreamImageMatchesSingleStream runs the fuzz program under
// both protocols at 1, 2 and 4 streams: every image must equal the
// fault-free golden, and every depot must pass the consistency auditor.
func TestMultiStreamImageMatchesSingleStream(t *testing.T) {
	const seed, phases = 5, 6
	prog := fuzzProgram(seed, phases)
	golden, err := Run(fuzzCfg(wal.ProtocolNone), prog)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	for _, proto := range []wal.Protocol{wal.ProtocolML, wal.ProtocolCCL} {
		for _, streams := range []int{1, 2, 4} {
			cfg := fuzzCfg(proto)
			cfg.LogStreams = streams
			rep, err := Run(cfg, prog)
			if err != nil {
				t.Fatalf("%v/%d streams: %v", proto, streams, err)
			}
			if !bytes.Equal(rep.MemoryImage(), golden.MemoryImage()) {
				t.Errorf("%v/%d streams: image differs from golden", proto, streams)
			}
			auditDepot(t, rep, false)
		}
	}
}

// TestMultiStreamCrashDeferredLoss crashes a CCL run at 4 streams with
// NO torn-write injection: the only crash loss is group-commit deferral
// (records staged but never flushed), which leaves no torn evidence on
// disk. Forced tail-mode recovery must still reproduce the golden image.
func TestMultiStreamCrashDeferredLoss(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	const phases = 6
	cases := []struct {
		proto wal.Protocol
		rec   recovery.Kind
	}{
		{wal.ProtocolCCL, recovery.CCLRecovery},
		{wal.ProtocolML, recovery.MLRecovery},
	}
	for _, seed := range seeds {
		prog := fuzzProgram(seed, phases)
		golden, err := Run(fuzzCfg(wal.ProtocolNone), prog)
		if err != nil {
			t.Fatalf("seed %d: golden: %v", seed, err)
		}
		for _, tc := range cases {
			cfg := fuzzCfg(tc.proto)
			cfg.LogStreams = 4
			rep, err := RunWithCrash(cfg, prog, CrashPlan{
				Victim:   1 + int(seed)%3,
				AtOp:     int32(10 + seed*3),
				Recovery: tc.rec,
			})
			if err != nil {
				t.Fatalf("seed %d proto %v: %v", seed, tc.proto, err)
			}
			if !bytes.Equal(rep.MemoryImage(), golden.MemoryImage()) {
				t.Errorf("seed %d proto %v: post-recovery image differs from golden", seed, tc.proto)
			}
			checkFuzzImage(t, rep.MemoryImage(), phases)
			auditDepot(t, rep, false)
		}
	}
}

// TestMultiStreamCrashTornTail combines the two loss mechanisms: torn
// final flushes on every stream AND group-commit deferral, under message
// faults, across seeds and both protocols.
func TestMultiStreamCrashTornTail(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	const phases = 6
	cases := []struct {
		proto wal.Protocol
		rec   recovery.Kind
	}{
		{wal.ProtocolCCL, recovery.CCLRecovery},
		{wal.ProtocolML, recovery.MLRecovery},
	}
	for _, seed := range seeds {
		prog := fuzzProgram(seed, phases)
		golden, err := Run(fuzzCfg(wal.ProtocolNone), prog)
		if err != nil {
			t.Fatalf("seed %d: golden: %v", seed, err)
		}
		for _, tc := range cases {
			cfg := fuzzCfg(tc.proto)
			cfg.LogStreams = 4
			cfg.Faults = soakPlan(seed)
			cfg.Faults.TornWriteOnCrash = true
			rep, err := RunWithCrash(cfg, prog, CrashPlan{
				Victim:   1 + int(seed)%3,
				AtOp:     int32(10 + seed*3),
				Recovery: tc.rec,
			})
			if err != nil {
				t.Fatalf("seed %d proto %v: %v", seed, tc.proto, err)
			}
			if !bytes.Equal(rep.MemoryImage(), golden.MemoryImage()) {
				t.Errorf("seed %d proto %v: post-recovery image differs from golden (torn=%v)",
					seed, tc.proto, rep.Recovery.TornTail)
			}
			checkFuzzImage(t, rep.MemoryImage(), phases)
			auditDepot(t, rep, true)
		}
	}
}

// TestMultiStreamDeterminism repeats one 4-stream crash configuration:
// the image must be bit-identical across identical runs.
func TestMultiStreamDeterminism(t *testing.T) {
	const seed, phases = 3, 6
	prog := fuzzProgram(seed, phases)
	run := func() *Report {
		cfg := fuzzCfg(wal.ProtocolCCL)
		cfg.LogStreams = 4
		rep, err := RunWithCrash(cfg, prog, CrashPlan{
			Victim: 2, AtOp: 12, Recovery: recovery.CCLRecovery,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !bytes.Equal(a.MemoryImage(), b.MemoryImage()) {
		t.Errorf("memory images differ across identical 4-stream crash runs")
	}
	if a.Recovery.CrashOp != b.Recovery.CrashOp || a.Recovery.Victim != b.Recovery.Victim {
		t.Errorf("crash points differ: %+v vs %+v", a.Recovery, b.Recovery)
	}
}

// TestMultiStreamFewerFlushes is the perf claim at test scale: under CCL
// the 4-stream group commit must issue strictly fewer stable flushes
// than the single-stream configuration on the same program.
func TestMultiStreamFewerFlushes(t *testing.T) {
	const seed, phases = 6, 6
	prog := fuzzProgram(seed, phases)
	flushes := func(streams int) int64 {
		cfg := fuzzCfg(wal.ProtocolCCL)
		cfg.LogStreams = streams
		rep, err := Run(cfg, prog)
		if err != nil {
			t.Fatalf("%d streams: %v", streams, err)
		}
		return rep.TotalFlushes
	}
	one, four := flushes(1), flushes(4)
	if four >= one {
		t.Errorf("4-stream run flushed %d times, single-stream %d — group commit coalesced nothing", four, one)
	}
}

// crashPoints are the places a ChurnPlan can bring the victim down.
var crashPoints = []fault.CrashPoint{fault.PointSyncExit, fault.PointHoldingLock, fault.PointDirtyHome}

// churnStreamsCross is the feature cross of online recovery with the
// multi-stream log: it runs base at every crash point over churnSlotsProg
// (the shared-counter churnProg hits ROADMAP item 2a at the non-quiescent
// points), at 1 and at 4 log streams, under each fault plan (the zero
// plan: none). Every image must equal the failure-free one — and so the
// 1-stream run's — every depot must audit, and wherever the replay
// distrusted a log tail (torn, or the final op of a multi-stream log) it
// must really have replayed ops from the managers' sender logs. Without
// message faults the cross also pins that group-commit deferral is live
// under churn: the 4-stream run must flush strictly fewer times than the
// 1-stream run (with deferral off it flushed at every release, as 1
// stream does).
func churnStreamsCross(t *testing.T, base ChurnPlan, faults ...fault.Plan) {
	const rounds = 8
	golden, err := Run(churnCfg(), churnSlotsProg(rounds))
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	run := func(t *testing.T, plan ChurnPlan, fp fault.Plan, streams int) *Report {
		cfg := churnCfg()
		cfg.LogStreams = streams
		cfg.Faults = fp
		rep := runChurnWatched(t, cfg, churnSlotsProg(rounds), plan)
		rec := rep.Recovery
		if !bytes.Equal(rep.MemoryImage(), golden.MemoryImage()) {
			t.Errorf("%d streams: image differs from the failure-free run (torn=%v tailOps=%d)", streams, rec.TornTail, rec.TailOps)
		}
		auditDepot(t, rep, fp.TornWriteOnCrash)
		if wantTail := streams > 1 || (fp.TornWriteOnCrash && !rec.Partitioned); rec.TornTail != wantTail {
			t.Errorf("%d streams: TornTail = %v, want %v", streams, rec.TornTail, wantTail)
		}
		if rec.TornTail && rec.TailOps == 0 {
			t.Errorf("%d streams: a distrusted log tail, but no op replayed from the sender logs", streams)
		}
		return rep
	}
	for _, fp := range faults {
		for _, point := range crashPoints {
			t.Run(fmt.Sprintf("seed%d/%v", fp.Seed, point), func(t *testing.T) {
				plan := base
				plan.Point = point
				one, four := run(t, plan, fp, 1), run(t, plan, fp, 4)
				if !bytes.Equal(four.MemoryImage(), one.MemoryImage()) {
					t.Error("4-stream image differs from the 1-stream run of the same plan")
				}
				if fp.DropProb == 0 && four.TotalFlushes >= one.TotalFlushes {
					t.Errorf("4-stream churn run flushed %d times, 1-stream %d — deferral is off under churn", four.TotalFlushes, one.TotalFlushes)
				}
			})
		}
	}
}

// runChurnWatched is RunWithChurn behind a watchdog. About one contended
// churn run in 1 800 strands in the arrival-fence deadlock of ROADMAP
// item 1 (two nodes parked in the fence, two in AcquireLock, every inbox
// empty; the same rate at every commit that has the fence), and the cross
// adds enough runs for that to cost the package its 10-minute timeout a
// few times in a hundred. A stranded run is abandoned and retried once;
// stranded twice in a row is a real deadlock. Goes with the fence.
func runChurnWatched(t *testing.T, cfg Config, prog Program, plan ChurnPlan) *Report {
	t.Helper()
	type result struct {
		rep *Report
		err error
	}
	for attempt := 0; ; attempt++ {
		done := make(chan result, 1)
		go func() {
			rep, err := RunWithChurn(cfg, prog, plan)
			done <- result{rep, err}
		}()
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatalf("%d streams: %v", cfg.LogStreams, r.err)
			}
			return r.rep
		case <-time.After(20 * time.Second):
			if attempt > 0 {
				t.Fatalf("%d streams: churn run stranded twice in a row", cfg.LogStreams)
			}
			t.Logf("%d streams: churn run stranded (ROADMAP item 1), retrying", cfg.LogStreams)
		}
	}
}

// TestMultiStreamChurn: streams x fail-stop x the three crash points.
func TestMultiStreamChurn(t *testing.T) {
	churnStreamsCross(t, churnPlan(fault.PointSyncExit), fault.Plan{})
}

// TestMultiStreamChurnPartition: streams x partition/rejoin x the three
// crash points (the onset op is cut off at its entry whatever the point).
func TestMultiStreamChurnPartition(t *testing.T) {
	churnStreamsCross(t, partitionPlan(), fault.Plan{})
}

// TestMultiStreamChurnTornTail: a torn final flush x online recovery x
// streams, under the reference message-fault load. Torn tails and churn
// never met while each recovery driver wired its own replayer modes.
func TestMultiStreamChurnTornTail(t *testing.T) {
	faults := []fault.Plan{soakPlan(1), soakPlan(2)}
	if testing.Short() {
		faults = faults[:1]
	}
	for i := range faults {
		faults[i].TornWriteOnCrash = true
	}
	churnStreamsCross(t, churnPlan(fault.PointSyncExit), faults...)
}
