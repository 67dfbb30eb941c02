package bench

import (
	"strings"
	"testing"

	"sdsm/internal/apps/kv"
	"sdsm/internal/core"
)

var kvTestCfg = kv.Config{Keys: 16, Ops: 40, ZipfS: 1.3, Seed: 9}

func TestKVBenchMatrix(t *testing.T) {
	const nodes = 3
	rows, err := RunKVBench(nodes, kvTestCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d cells, want sim/tcp x plain/churn = 4", len(rows))
	}
	wantOps := nodes * kvTestCfg.Ops
	for _, r := range rows {
		// Churn cells observe extra ops: the victim re-runs (and
		// re-observes) its op-stream prefix during replay.
		if !r.Churn && r.Ops != wantOps {
			t.Errorf("%s: %d ops observed, want %d", r.Transport, r.Ops, wantOps)
		}
		if r.Churn && r.Ops <= wantOps {
			t.Errorf("%s churn: %d ops observed, want > %d (replay re-observes)", r.Transport, r.Ops, wantOps)
		}
		if r.ReadP50Us <= 0 || r.WriteP99Us <= 0 {
			t.Errorf("%s churn=%v: empty latency percentiles: %+v", r.Transport, r.Churn, r)
		}
		if r.OpsPerSec <= 0 || r.AuditRecords == 0 {
			t.Errorf("%s churn=%v: ops/s %g, audit records %d", r.Transport, r.Churn, r.OpsPerSec, r.AuditRecords)
		}
		if r.Churn && (r.RejoinSec <= 0 || r.CatchUpSec <= 0) {
			t.Errorf("%s: churn cell missing recovery timings: %+v", r.Transport, r)
		}
		if isTCP := r.Transport == core.TransportTCP; isTCP != (r.Frames > 0) {
			t.Errorf("%s churn=%v: wire frames %d", r.Transport, r.Churn, r.Frames)
		}
	}
	// The formatter must cover every cell.
	out := FormatKV(nodes, kvTestCfg, rows)
	for _, want := range []string{"sim", "tcp", "crash", "p50/p90/p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatKV missing %q:\n%s", want, out)
		}
	}
}

func TestKVBenchRejectsBadInputs(t *testing.T) {
	if _, err := RunKVBench(1, kvTestCfg, nil); err == nil {
		t.Fatal("single-node kv bench accepted (churn needs a victim)")
	}
	if _, err := RunKVBench(2, kv.Config{ZipfS: 0.5}, nil); err == nil {
		t.Fatal("invalid kv config accepted")
	}
}
