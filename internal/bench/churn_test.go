package bench

import (
	"fmt"
	"strings"
	"testing"

	"sdsm/internal/memory"
)

// TestChurnBench runs the full sweep at a reduced cluster size: every
// row must show surviving-cluster progress inside the down window and a
// positive catch-up, and every run already passed the log auditor, the
// failure-free image check and the custody check inside RunChurnBench.
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
		// Every survivor signs a slot on a migrated page after the rejoin,
		// so the custody check has at least one entry per survivor to match.
		if r.CustodyMatched < nodes-1 {
			t.Errorf("%v restart %gms: custody check matched %d entries, want >= %d", r.Point, r.RestartMs, r.CustodyMatched, nodes-1)
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

// TestCustodyCheckNamesTamperedEntry changes one byte of one custody
// entry a never-crashed writer sent to an adopted home: the custody check
// must fail and name the page, the writer and the seq.
func TestCustodyCheckNamesTamperedEntry(t *testing.T) {
	const nodes = 4
	rep, _, err := runChurnCell(nodes, churnCells()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkCustody(rep); err != nil {
		t.Fatalf("untouched run: %v", err)
	}
	for _, st := range rep.AdoptedPages {
		for i, e := range st.Applied {
			if int(e.Writer) == rep.Recovery.Victim || e.Diff.DataBytes() == 0 {
				continue
			}
			enc := e.Diff.Encode(nil)
			enc[len(enc)-1] ^= 0xff // the last data byte of the last run
			d, _, err := memory.DecodeDiff(enc)
			if err != nil {
				t.Fatal(err)
			}
			st.Applied[i].Diff = d
			_, err = checkCustody(rep)
			if err == nil {
				t.Fatal("custody check passed a tampered entry")
			}
			want := fmt.Sprintf("page %d: custody entry (writer %d, seq %d)", st.Page, e.Writer, e.Seq)
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %q", err, want)
			}
			return
		}
	}
	t.Fatal("no custody entry from a never-crashed writer to tamper with")
}
