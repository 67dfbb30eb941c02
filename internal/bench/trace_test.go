package bench

import (
	"bytes"
	"sync"
	"testing"

	"sdsm/internal/apps/kv"
	"sdsm/internal/core"
	"sdsm/internal/obsv"
)

// traceIDSet runs one kv cell and returns the set of trace IDs its
// collector recorded, plus the collector for further inspection.
func traceIDSet(t *testing.T, nodes int, cfg kv.Config, tr core.Transport, churn bool) (map[uint64]bool, *obsv.Collector) {
	t.Helper()
	_, col, _, err := runKVCell(nodes, cfg, tr, churn)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]bool{}
	for _, b := range col.TraceBreakdowns() {
		ids[b.Trace.TraceID] = true
	}
	return ids, col
}

// Trace IDs are a pure function of (seed, node, op index) — no wall
// clock, no randomness — so every backend, and every repeat of the same
// seed, must mint exactly the predicted ID set. This is the
// same-seed-stability invariant for the tracing layer: a trace ID from
// yesterday's slowest-ops table resolves against today's re-run.
func TestKVTraceSeedStability(t *testing.T) {
	const nodes = 3
	cfg := kvTestCfg
	want := map[uint64]bool{}
	for node := 0; node < nodes; node++ {
		for op := 1; op <= cfg.Ops; op++ { // op indices are 1-based
			want[obsv.NewTraceID(cfg.Seed, node, int64(op))] = true
		}
	}
	for _, tr := range []core.Transport{core.TransportSim, core.TransportTCP} {
		first, _ := traceIDSet(t, nodes, cfg, tr, false)
		if len(first) != len(want) {
			t.Fatalf("%s: minted %d distinct trace ids, want %d", tr, len(first), len(want))
		}
		for id := range first {
			if !want[id] {
				t.Fatalf("%s: unpredicted trace id %s", tr, obsv.FormatTraceID(id))
			}
		}
		second, _ := traceIDSet(t, nodes, cfg, tr, false)
		if len(second) != len(first) {
			t.Fatalf("%s: repeat run minted %d ids, first run %d", tr, len(second), len(first))
		}
		for id := range second {
			if !first[id] {
				t.Fatalf("%s: repeat run minted new id %s", tr, obsv.FormatTraceID(id))
			}
		}
	}
}

// Under churn the victim re-executes its op-stream prefix during
// replay; the re-executed ops re-mint the *same* IDs (same node, same
// op index), so the ID set is still exactly the predicted one.
func TestKVTraceIDsStableAcrossChurn(t *testing.T) {
	const nodes = 3
	cfg := kvTestCfg
	plain, _ := traceIDSet(t, nodes, cfg, core.TransportSim, false)
	churned, _ := traceIDSet(t, nodes, cfg, core.TransportSim, true)
	if len(plain) != len(churned) {
		t.Fatalf("churn changed the trace-id set size: %d vs %d", len(plain), len(churned))
	}
	for id := range churned {
		if !plain[id] {
			t.Fatalf("churn minted an id the plain run never did: %s", obsv.FormatTraceID(id))
		}
	}
}

// The acceptance scenario: a crash-mid-traffic kv run over the real TCP
// backend must contain at least one op whose span tree crosses three or
// more nodes, and the Chrome export must bind those spans with flow
// events.
func TestKVTraceSpansCrossNodes(t *testing.T) {
	const nodes = 4
	cfg := kv.Config{Keys: 16, Ops: 40, ZipfS: 1.3, Seed: 9}
	_, col := traceIDSet(t, nodes, cfg, core.TransportTCP, true)

	var wide *obsv.TraceBreakdown
	for _, b := range col.TraceBreakdowns() {
		if b.NodesHit >= 3 {
			wide = &b
			break
		}
	}
	if wide == nil {
		t.Fatal("no kv op's span tree crossed >= 3 nodes")
	}
	evs := col.TraceEvents(wide.Trace.TraceID)
	if len(evs) == 0 {
		t.Fatal("wide trace has no resolvable events")
	}
	seen := map[int]bool{}
	for _, ne := range evs {
		seen[ne.Node] = true
	}
	if len(seen) < 3 {
		t.Fatalf("TraceEvents spans %d nodes, breakdown said %d", len(seen), wide.NodesHit)
	}

	var buf bytes.Buffer
	if err := obsv.WriteChromeTrace(&buf, col); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"ph":"s"`)) || !bytes.Contains(buf.Bytes(), []byte(`"bp":"e"`)) {
		t.Fatal("chrome export of a traced run carries no flow events")
	}
}

// Every completed kv transaction must reach the OnOp hook with a live,
// well-formed trace context — the benchmark's per-op latency feed.
func TestKVOnOpDeliversTraceIDs(t *testing.T) {
	const nodes = 2
	cfg := kvTestCfg
	var mu sync.Mutex // OnOp fires on every node's goroutine
	var recs []kv.OpRecord
	cfg.OnOp = func(r kv.OpRecord) {
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
	}
	_, _, _, err := runKVCell(nodes, cfg, core.TransportSim, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != nodes*cfg.Ops {
		t.Fatalf("OnOp fired %d times, want %d", len(recs), nodes*cfg.Ops)
	}
	for _, r := range recs {
		if !r.Trace.Valid() {
			t.Fatalf("untraced op record: %+v", r)
		}
		if want := obsv.NewTraceID(cfg.Seed, r.Node, int64(r.Seq)); r.Trace.TraceID != want {
			t.Fatalf("op record trace id %s, want %s",
				obsv.FormatTraceID(r.Trace.TraceID), obsv.FormatTraceID(want))
		}
		if r.Latency < 0 {
			t.Fatalf("negative latency: %+v", r)
		}
	}
}
