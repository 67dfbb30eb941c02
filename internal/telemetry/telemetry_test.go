package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdsm/internal/obsv"
	"sdsm/internal/stable"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry over fixed sources: two nodes of
// counters, a collector with histogram observations and a few events,
// no fabric (the sim-transport shape, whose page must still be
// complete). Everything is deterministic, so the page is golden-able.
func goldenRegistry() *Registry {
	var c0, c1 obsv.Counters
	c0.Faults.Store(3)
	c0.LockAcquires.Store(7)
	c0.DiffBytesSent.Store(4096)
	c1.LockAcquires.Store(5)
	c1.Barriers.Store(2)
	c1.LogAppends.Store(11)

	col := obsv.NewCollector(2)
	trc := col.Tracer(0)
	trc.Observe(obsv.HistKVRead, 0)
	trc.Observe(obsv.HistKVRead, 1500)
	trc.Observe(obsv.HistKVRead, 1800)
	trc.Observe(obsv.HistKVWrite, 250000)
	trc.Observe(obsv.HistFlushStall, 900)
	trc.Seg(obsv.EvCompute, obsv.CatCompute, 0, 100, 0, 0)
	col.Tracer(1).Seg(obsv.EvCompute, obsv.CatCompute, 0, 200, 0, 0)

	// A two-node depot: the per-node WAL families are part of the scrape
	// contract too.
	depot := stable.NewDepot(2)
	depot.Store(0).Flush([]stable.Record{
		{Kind: 1, Op: 0, Data: []byte("abcd")},
		{Kind: 1, Op: 0, Data: []byte("efghijkl")},
	})
	depot.Store(1).Flush([]stable.Record{
		{Kind: 2, Op: 1, Data: []byte("zz")},
	})

	r := NewRegistry()
	r.Attach([]*obsv.Counters{&c0, &c1}, col, nil)
	r.AttachDepot(depot)
	return r
}

// The exposition page must match the committed golden byte for byte:
// family set, ordering, histogram bucket edges and formatting are all
// part of the scrape contract.
// Regenerate with: go test ./internal/telemetry -run Golden -update
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prometheus_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden (rerun with -update if intended)\ngot:\n%s", buf.String())
	}
}

func TestPrometheusPageStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	for _, want := range []string{
		"# TYPE sdsm_lock_acquires_total counter",
		"sdsm_lock_acquires_total 12", // 7 + 5 summed across nodes
		"sdsm_trace_events 2",
		"sdsm_kv_read_ns_count 3",
		`sdsm_kv_read_ns_bucket{le="0"} 1`,
		// 1500 and 1800 both have bit-length 11: inclusive edge 2^11-1.
		`sdsm_kv_read_ns_bucket{le="2047"} 3`,
		`sdsm_kv_read_ns_bucket{le="+Inf"} 3`,
		"sdsm_kv_write_ns_sum 250000",
		"sdsm_flush_stall_ns_count 1",
		// Per-node WAL families carry a node label; node 0 wrote 4- and
		// 8-byte payloads, each behind a 13-byte header, in one flush.
		`sdsm_wal_flushes_total{node="0"} 1`,
		`sdsm_wal_bytes_total{node="0"} 38`,
		`sdsm_wal_bytes_total{node="1"} 15`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("page is missing %q\n%s", want, page)
		}
	}
	if strings.Contains(page, "sdsm_link_") {
		t.Fatal("fabric-less registry exposed link families")
	}
	if err := CheckExposition(buf.Bytes(), RequiredFamilies); err != nil {
		t.Fatalf("golden page fails its own self-check: %v", err)
	}
}

// An empty registry (nothing attached) must still render a well-formed
// page — the server may be scraped before the bench attaches a cell.
func TestPrometheusEmptyRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sdsm_trace_events 0") {
		t.Fatalf("empty page = %q", buf.String())
	}
}

func TestCheckExposition(t *testing.T) {
	page := []byte("# TYPE sdsm_a_total counter\nsdsm_a_total 1\nsdsm_h_bucket{le=\"+Inf\"} 2\nsdsm_h_count 2\nsdsm_link_x{from=\"0\",to=\"1\"} 3\n")
	if err := CheckExposition(page, []string{"sdsm_a_total", "sdsm_h", "sdsm_link_x"}); err != nil {
		t.Fatalf("families present but check failed: %v", err)
	}
	err := CheckExposition(page, []string{"sdsm_a_total", "sdsm_missing", "sdsm_gone"})
	if err == nil {
		t.Fatal("missing families not reported")
	}
	if !strings.Contains(err.Error(), "sdsm_missing") || !strings.Contains(err.Error(), "sdsm_gone") {
		t.Fatalf("error must name every missing family: %v", err)
	}
	// A family name that is merely a prefix of a present metric must not
	// be satisfied by it ("sdsm_a" vs "sdsm_a_total" has next char '_').
	if err := CheckExposition(page, []string{"sdsm_a"}); err == nil {
		t.Fatal("prefix match must not satisfy a family check")
	}
}
