package bench

import (
	"testing"
)

// TestChurnBench runs the full sweep at a reduced cluster size: every
// row must show surviving-cluster progress inside the down window and a
// positive catch-up, and every run already passed the log auditor inside
// RunChurnBench.
func TestChurnBench(t *testing.T) {
	const nodes = 4
	rows, err := RunChurnBench(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ChurnPoints)*len(ChurnRestartsMs) + len(ChurnPartitionsMs); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.SurvivorOps <= 0 || r.SurvivorRate <= 0 {
			t.Errorf("%v restart %gms: no surviving-cluster progress during recovery", r.Point, r.RestartMs)
		}
		if r.CatchUpSec <= 0 {
			t.Errorf("%v restart %gms: non-positive catch-up", r.Point, r.RestartMs)
		}
		if r.RejoinSec <= r.CrashSec || r.DeclareSec <= r.CrashSec {
			t.Errorf("%v restart %gms: rejoin/declare before the crash: %+v", r.Point, r.RestartMs, r)
		}
		if r.Adoptions < 1 {
			t.Errorf("%v restart %gms: victim's homes were never adopted", r.Point, r.RestartMs)
		}
		if r.PartitionMs > 0 {
			// Rejoin cells: the split-brain window must have been fenced and
			// the re-admitted node must have served ops inside the window.
			if r.FencedMsgs < 1 || r.EpochBumps < 2 || r.TruncatedRecs < 1 {
				t.Errorf("partition %gms: fencing/rejoin counters not exercised: %+v", r.PartitionMs, r)
			}
			if r.VictimServed < 1 || r.AvailablePct <= 0 || r.AvailablePct > 100 {
				t.Errorf("partition %gms: bad availability: served %d, %.1f%%", r.PartitionMs, r.VictimServed, r.AvailablePct)
			}
		}
	}
	if out := FormatChurn(nodes, rows); len(out) == 0 {
		t.Fatal("empty table")
	}
}
