package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"sdsm/internal/fault"
)

// crashPoints are the places a ChurnPlan can bring the victim down.
var crashPoints = []fault.CrashPoint{fault.PointSyncExit, fault.PointHoldingLock, fault.PointDirtyHome}

// churnCross runs base at every crash point over churnSlotsProg (the
// shared-counter churnProg hits ROADMAP item 2a at the non-quiescent
// points), under each fault plan (the zero plan: none). Every image must
// equal the failure-free one, every depot must audit, and wherever the
// replay distrusted a torn log tail it must really have replayed ops from
// the managers' sender logs.
func churnCross(t *testing.T, base ChurnPlan, faults ...fault.Plan) {
	const rounds = 8
	golden, err := Run(churnCfg(), churnSlotsProg(rounds))
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	for _, fp := range faults {
		for _, point := range crashPoints {
			t.Run(fmt.Sprintf("seed%d/%v", fp.Seed, point), func(t *testing.T) {
				plan := base
				plan.Point = point
				cfg := churnCfg()
				cfg.Faults = fp
				rep := runChurnWatched(t, cfg, churnSlotsProg(rounds), plan)
				rec := rep.Recovery
				if !bytes.Equal(rep.MemoryImage(), golden.MemoryImage()) {
					t.Errorf("image differs from the failure-free run (torn=%v tailOps=%d)", rec.TornTail, rec.TailOps)
				}
				auditDepot(t, rep, fp.TornWriteOnCrash)
				if wantTail := fp.TornWriteOnCrash && !rec.Partitioned; rec.TornTail != wantTail {
					t.Errorf("TornTail = %v, want %v", rec.TornTail, wantTail)
				}
				if rec.TornTail && rec.TailOps == 0 {
					t.Error("a torn log tail, but no op replayed from the sender logs")
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
				t.Fatal(r.err)
			}
			return r.rep
		case <-time.After(20 * time.Second):
			if attempt > 0 {
				t.Fatal("churn run stranded twice in a row")
			}
			t.Log("churn run stranded (ROADMAP item 1), retrying")
		}
	}
}

// TestChurnCross: fail-stop x the three crash points.
func TestChurnCross(t *testing.T) {
	churnCross(t, churnPlan(fault.PointSyncExit), fault.Plan{})
}

// TestChurnCrossPartition: partition/rejoin x the three crash points (the
// onset op is cut off at its entry whatever the point).
func TestChurnCrossPartition(t *testing.T) {
	churnCross(t, partitionPlan(), fault.Plan{})
}

// TestChurnCrossTornTail: a torn final flush x online recovery x the
// three crash points, under the reference message-fault load.
func TestChurnCrossTornTail(t *testing.T) {
	faults := []fault.Plan{soakPlan(1), soakPlan(2)}
	if testing.Short() {
		faults = faults[:1]
	}
	for i := range faults {
		faults[i].TornWriteOnCrash = true
	}
	churnCross(t, churnPlan(fault.PointSyncExit), faults...)
}
