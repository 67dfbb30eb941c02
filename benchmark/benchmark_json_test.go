package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

// contractSeconds is BENCHMARK.json's run_seconds: with three set-ups and
// the build it keeps the driver's 92 runs inside its time budget.
const contractSeconds = 20

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractFile struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractMetric   `json:"end_to_end"`
	PerLayer   []contractMetric   `json:"per_layer"`
}

// wantContract projects the metric and workload tables onto the layout
// the benchmark driver reads.
func wantContract() contractFile {
	c := contractFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: contractSeconds,
	}
	for _, w := range workloadDefs {
		c.Workloads = append(c.Workloads, contractWorkload{Name: w.name, Why: w.why})
	}
	endToEnd, perLayer := contractLists()
	for _, d := range endToEnd {
		b := d.contractBound()
		c.EndToEnd = append(c.EndToEnd, contractMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &b})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, contractMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return c
}

// TestBenchmarkJSON keeps BENCHMARK.json a projection of the tables in
// metrics.go and workloads.go, and inside the driver's format limits.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(wantContract(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is out of step with the metric tables; run go test -run TestBenchmarkJSON -update\nwant:\n%s", path, want)
	}

	c := wantContract()
	if len(c.EndToEnd) < 1 || len(c.EndToEnd) > 16 || len(c.PerLayer) > 128 || len(got) > 64<<10 {
		t.Errorf("%d end_to_end and %d per_layer metrics in %d bytes exceed the driver's limits", len(c.EndToEnd), len(c.PerLayer), len(got))
	}
	seen := map[string]bool{}
	for _, m := range append(c.EndToEnd, c.PerLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("metric %q (unit %q) is duplicated or too long", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
	}
	for _, w := range c.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
}
