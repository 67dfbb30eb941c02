package core

import (
	"bytes"
	"strings"
	"testing"

	"sdsm/internal/fault"
	"sdsm/internal/simtime"
)

// partitionPlan turns the standard churn plan into a partition: the
// victim is cut off for 40 ms — long past the 3 ms lease, so the
// survivors wrongly declare it dead inside the window, but far under the
// transport's total retransmission budget, so the victim's in-window
// sends survive the cut and get fenced after the heal.
func partitionPlan() ChurnPlan {
	p := churnPlan(fault.PointSyncExit)
	p.PartitionFor = 40_000_000
	return p
}

// TestRunWithChurnPartitionRejoin is the partition-heal soak: node 1 is
// partitioned mid-run and wrongly declared dead, its homes and lock fail
// over, its post-heal stale-epoch traffic is fenced (split-brain
// prevention), and the rejoin protocol re-admits it at a fresh epoch via
// log replay. The run must converge to the failure-free golden image,
// and the rejoined node must serve operations inside the run window.
func TestRunWithChurnPartitionRejoin(t *testing.T) {
	const rounds = 8
	rep, err := RunWithChurn(churnCfg(), churnSlotsProg(rounds), partitionPlan())
	if err != nil {
		t.Fatal(err)
	}
	rec := rep.Recovery
	if rec == nil || !rec.Online || !rec.Partitioned {
		t.Fatalf("missing partition recovery report: %+v", rec)
	}
	if rec.CrashTime <= 0 || rec.DeclareTime != rec.CrashTime+3_000_000 {
		t.Fatalf("bad onset/declare times: %+v", rec)
	}
	if rec.HealTime != rec.CrashTime+40_000_000 {
		t.Fatalf("heal time %d, want onset %d + 40ms", rec.HealTime, rec.CrashTime)
	}
	// The fence can only land after the heal: in-window sends are cut, so
	// the first request a survivor actually receives departs post-heal.
	if rec.FencedTime < rec.HealTime {
		t.Fatalf("victim fenced at %d before the partition healed at %d", rec.FencedTime, rec.HealTime)
	}
	if rec.RestartTime != rec.FencedTime+20_000_000 {
		t.Fatalf("re-admission time %d, want fenced %d + 20ms", rec.RestartTime, rec.FencedTime)
	}
	// Epoch 1 is the birth epoch; the wrong death declaration bumps to 2
	// and the rejoin must land strictly past it.
	if rec.RejoinEpoch < 3 {
		t.Fatalf("rejoin epoch %d, want >= 3", rec.RejoinEpoch)
	}
	// The stale incarnation logged its onset interval (and possibly more)
	// to stable store even though none of it landed cluster-visibly; the
	// rejoin must have discarded that suffix.
	if rec.TruncatedRecords < 1 {
		t.Fatal("rejoin truncated no stale log records")
	}
	if rec.ReplayTime <= 0 || rec.RejoinTime != rec.RestartTime+rec.ReplayTime {
		t.Fatalf("bad replay/rejoin times: %+v", rec)
	}
	if simtime.Time(rec.Phases.Sum()) != rec.ReplayTime {
		t.Fatalf("phases sum %d != replay time %d", rec.Phases.Sum(), rec.ReplayTime)
	}

	var fenced, bumps, phases, served int64
	for _, s := range rep.Stats {
		fenced += s.FencedMsgs
		bumps += s.EpochBumps
		phases += s.RejoinPhases
		served += s.RejoinServed
	}
	if fenced < 1 {
		t.Error("no stale-epoch message was fenced: the split-brain window went undetected")
	}
	// Three survivors adopt the death epoch from the obituary, the victim
	// books its own rejoin bump.
	if bumps < 4 {
		t.Errorf("epoch bumps = %d, want >= 4", bumps)
	}
	if phases != 2 {
		t.Errorf("rejoin phases = %d, want 2 (replay entered, detached to live)", phases)
	}
	// Availability: the re-admitted node served sync ops inside the run
	// window (everything past the onset op ran live against the healed
	// cluster).
	if served < 1 {
		t.Error("rejoined node served no operations inside the run window")
	}

	// Convergence: byte-identical to the failure-free golden image.
	golden, err := Run(churnCfg(), churnSlotsProg(rounds))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.MemoryImage(), golden.MemoryImage()) {
		t.Error("partition-heal image differs from the failure-free golden image")
	}
}

// TestRunWithChurnPartitionDeterministic pins the replayability claim:
// same seed, same partition window, byte-identical outcome.
func TestRunWithChurnPartitionDeterministic(t *testing.T) {
	const rounds = 8
	run := func() *Report {
		rep, err := RunWithChurn(churnCfg(), churnSlotsProg(rounds), partitionPlan())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !bytes.Equal(a.MemoryImage(), b.MemoryImage()) {
		t.Error("memory image differs across same-seed partition runs")
	}
	// The protocol outcome is scheduler-independent.
	ra, rb := a.Recovery, b.Recovery
	if ra.RejoinEpoch != rb.RejoinEpoch || ra.TruncatedRecords != rb.TruncatedRecords {
		t.Errorf("rejoin outcome differs across same-seed partition runs: %+v vs %+v", ra, rb)
	}
	// The onset, heal, fence and rejoin milestones are pure functions of
	// virtual time, and the manager decides every grant of this contended
	// workload in virtual-arrival order, so they replay exactly under any
	// scheduler (as in TestRunWithChurnDeterministic).
	if ra.CrashTime != rb.CrashTime || ra.HealTime != rb.HealTime || ra.FencedTime != rb.FencedTime {
		t.Errorf("rejoin milestones differ across same-seed partition runs: %+v vs %+v", ra, rb)
	}
}

// TestRunWithChurnPartitionTCP runs the same partition-heal-rejoin cycle
// over the real-socket backend. Goroutine interleavings differ there, so
// only the final image and the report invariants are comparable.
func TestRunWithChurnPartitionTCP(t *testing.T) {
	const rounds = 8
	cfg := churnCfg()
	cfg.Transport = TransportTCP
	rep, err := RunWithChurn(cfg, churnSlotsProg(rounds), partitionPlan())
	if err != nil {
		t.Fatal(err)
	}
	rec := rep.Recovery
	if rec == nil || !rec.Partitioned || rec.RejoinEpoch < 3 {
		t.Fatalf("bad partition report over TCP: %+v", rec)
	}
	if rec.FencedTime < rec.HealTime {
		t.Fatalf("victim fenced at %d before the heal at %d", rec.FencedTime, rec.HealTime)
	}
	golden, err := Run(churnCfg(), churnSlotsProg(rounds))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.MemoryImage(), golden.MemoryImage()) {
		t.Error("TCP partition-heal image differs from the failure-free golden image")
	}
}

// TestPartitionChurnPlanValidation covers the malformed partition plans
// RunWithChurn must reject up front.
func TestPartitionChurnPlanValidation(t *testing.T) {
	cases := []struct {
		name string
		plan func(ChurnPlan) ChurnPlan
		want string
	}{
		{"window inside lease", func(p ChurnPlan) ChurnPlan { p.PartitionFor = p.LeaseDuration; return p },
			"must exceed LeaseDuration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunWithChurn(churnCfg(), churnSlotsProg(2), tc.plan(partitionPlan()))
			if err == nil {
				t.Fatal("expected a validation error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
