package bench

import (
	"bytes"
	"testing"

	"sdsm/internal/apps"
	"sdsm/internal/core"
	"sdsm/internal/fault"
	"sdsm/internal/obsv"
	"sdsm/internal/wal"
)

func runTraced(t *testing.T, w *apps.Workload, nodes int, proto wal.Protocol, plan fault.Plan) (*core.Report, *obsv.Collector) {
	t.Helper()
	cfg := w.BaseConfig(nodes)
	cfg.Protocol = proto
	cfg.SkipInitialCheckpoint = true
	cfg.Faults = plan
	cfg.Trace = obsv.NewCollector(nodes)
	rep, err := core.Run(cfg, w.Prog)
	if err != nil {
		t.Fatalf("%s/%v: %v", w.Name, proto, err)
	}
	if err := w.Check(rep.MemoryImage()); err != nil {
		t.Fatalf("%s/%v: %v", w.Name, proto, err)
	}
	return rep, cfg.Trace
}

func chromeBytes(t *testing.T, c *obsv.Collector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obsv.WriteChromeTrace(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Acceptance: same seed ⇒ byte-identical Chrome trace under CCL. The
// barrier apps order every coherence action by barrier phase, and CCL's
// release flush composes from arrival-fenced records, so two runs of the
// same workload must produce the same events at the same virtual times.
// ML is deliberately excluded: it flushes everything staged at sync
// entry, and deferring racy late arrivals there would break ML
// recovery's logged-before-dependency invariant (DESIGN.md §2.6).
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	const nodes = 8
	w := func() *apps.Workload { return Workloads(nodes, ScaleSmall)[0] } // 3d-fft
	_, c1 := runTraced(t, w(), nodes, wal.ProtocolCCL, fault.Plan{})
	_, c2 := runTraced(t, w(), nodes, wal.ProtocolCCL, fault.Plan{})
	b1, b2 := chromeBytes(t, c1), chromeBytes(t, c2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("trace differs between identical runs (%d vs %d bytes)", len(b1), len(b2))
	}
}

// Same property with message faults enabled: fault decisions are a pure
// function of (seed, link, seq), so drops/dups/delays replay identically
// and the trace must still be byte-stable.
func TestTraceDeterministicUnderFaults(t *testing.T) {
	const nodes = 8
	plan := fault.Plan{Seed: 42, DropProb: 0.05, DupProb: 0.05, DelayProb: 0.10}
	w := func() *apps.Workload { return Workloads(nodes, ScaleSmall)[0] } // 3d-fft
	_, c1 := runTraced(t, w(), nodes, wal.ProtocolCCL, plan)
	_, c2 := runTraced(t, w(), nodes, wal.ProtocolCCL, plan)
	b1, b2 := chromeBytes(t, c1), chromeBytes(t, c2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("faulty trace differs between identical runs (%d vs %d bytes)", len(b1), len(b2))
	}
}

// Acceptance: the critical-path walk partitions the whole run — the
// category durations must sum to the end-to-end time within 1% — and
// CCL's logging share must come in strictly below ML's on every app,
// because CCL keeps disk flushes off the critical path (release-time,
// overlapped) while ML stalls every sync entry on them.
func TestBreakdownPartitionsAndCCLBeatsML(t *testing.T) {
	const nodes = 8
	for _, i := range []int{0, 1, 2, 3} {
		logShare := map[wal.Protocol]float64{}
		for _, proto := range []wal.Protocol{wal.ProtocolML, wal.ProtocolCCL} {
			w := Workloads(nodes, ScaleSmall)[i]
			rep, c := runTraced(t, w, nodes, proto, fault.Plan{})
			pr, err := c.CriticalPath(rep.NodeTimes)
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, proto, err)
			}
			if pr.Total <= 0 {
				t.Fatalf("%s/%v: empty critical path", w.Name, proto)
			}
			sum, total := float64(pr.Sum()), float64(pr.Total)
			if diff := sum - total; diff > total/100 || diff < -total/100 {
				t.Errorf("%s/%v: attribution sums to %.0f of %.0f (off by %.2f%%)",
					w.Name, proto, sum, total, 100*(sum/total-1))
			}
			logShare[proto] = pr.Share(obsv.CatLogging)
		}
		app := Workloads(nodes, ScaleSmall)[i].Name
		if logShare[wal.ProtocolCCL] >= logShare[wal.ProtocolML] {
			t.Errorf("%s: CCL logging share %.4f not below ML's %.4f",
				app, logShare[wal.ProtocolCCL], logShare[wal.ProtocolML])
		}
	}
}
