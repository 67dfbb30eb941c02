package obsv

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenCollector builds a small fixed event set covering every phase type
// the exporter emits: metadata (M), complete spans (X) on all three
// threads, and an instant (i).
func goldenCollector() *Collector {
	c := NewCollector(2)
	n0, n1 := c.Tracer(0), c.Tracer(1)
	n0.Seg(EvCompute, CatCompute, 0, 1500, 0, 0)
	n0.Recv(1500, 3200, 1, 2400, 7, 4160)
	n0.DiskSpan(EvLogFlush, 3200, 4200, 512, 0)
	n1.Seg(EvTwinCreate, CatCoherence, 0, 20480, 3, 4096)
	n1.SvcSpan(TraceCtx{}, EvPageServe, CatCoherence, 2350, 2400, 0, 1500, 3, 4160)
	n1.SvcInstant(TraceCtx{}, EvDiffApply, 2400, 3, 128)
	return c
}

// The Chrome export must match the committed golden file byte for byte:
// the export path is deterministic (canonical sort, fixed float precision)
// and the golden pins the schema against accidental drift.
// Regenerate with: go test ./internal/obsv -run ChromeTraceGolden -update
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenCollector()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
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
		t.Fatalf("chrome trace drifted from golden file (rerun with -update if intended)\ngot:\n%s", buf.String())
	}
}

// Structural schema check: the export must parse as the Chrome trace-event
// JSON object form, every event must carry a known phase, and spans need
// non-negative timestamps and durations — the properties Perfetto needs to
// load the file.
func TestChromeTraceSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenCollector()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			Ts   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
		if ev.Name == "" || ev.Pid == nil {
			t.Fatalf("event missing name/pid: %+v", ev)
		}
		switch ev.Ph {
		case "M":
			if ev.Args["name"] == nil {
				t.Fatalf("metadata event without args.name: %+v", ev)
			}
		case "X":
			if ev.Ts == nil || ev.Dur == nil || *ev.Ts < 0 || *ev.Dur <= 0 {
				t.Fatalf("bad complete event: %+v", ev)
			}
		case "i":
			if ev.Ts == nil {
				t.Fatalf("instant without ts: %+v", ev)
			}
		default:
			t.Fatalf("unknown phase %q", ev.Ph)
		}
	}
	// 2 process_name + 6 thread_name metadata, 5 spans, 1 instant.
	if phases["M"] != 8 || phases["X"] != 5 || phases["i"] != 1 {
		t.Fatalf("phase counts = %v", phases)
	}
}
