package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Benchmark-side spans wrap the benchmark's own calls into each layer
// (workload builds, core.Run*, checks, audits, probes). They are held in
// memory and written out when the run ends. The driver is one goroutine,
// so the open spans form a stack and the top of it is the parent.

// span is one recorded interval. IDs are 1-based; Parent 0 = root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Cell     string `json:"cell,omitempty"`
	StartNS  int64  `json:"start_ns"` // since the recorder was created
	EndNS    int64  `json:"end_ns"`
}

// spanRecorder collects spans. A nil recorder records nothing, which is
// how the untraced runs keep the span cost out of the end-to-end numbers.
type spanRecorder struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // indices into spans
}

func newSpanRecorder(workload string) *spanRecorder {
	return &spanRecorder{workload: workload, t0: time.Now()}
}

// begin opens a span and returns the function that closes it.
func (r *spanRecorder) begin(name, cell string) (end func()) {
	if r == nil {
		return func() {}
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{
		ID: idx + 1, Parent: parent, Name: name, Workload: r.workload, Cell: cell,
		StartNS: int64(time.Since(r.t0)),
	})
	r.open = append(r.open, idx)
	return func() {
		r.spans[idx].EndNS = int64(time.Since(r.t0))
		r.open = r.open[:len(r.open)-1]
	}
}

// spanTotals is one span name's time: total, and self = total minus the
// part its child spans cover.
type spanTotals struct {
	Name    string
	Count   int
	TotalNS int64
	SelfNS  int64
}

// totals aggregates the recorded spans per name, largest self time first.
func (r *spanRecorder) totals() []spanTotals {
	if r == nil {
		return nil
	}
	childNS := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		childNS[s.Parent] += s.EndNS - s.StartNS
	}
	byName := map[string]*spanTotals{}
	for _, s := range r.spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotals{Name: s.Name}
			byName[s.Name] = t
		}
		d := s.EndNS - s.StartNS
		t.Count++
		t.TotalNS += d
		t.SelfNS += d - childNS[s.ID]
	}
	out := make([]spanTotals, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNS != out[j].SelfNS {
			return out[i].SelfNS > out[j].SelfNS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func (r *spanRecorder) print(w io.Writer) {
	fmt.Fprintf(w, "\nbenchmark-side spans [host] (self = span minus its children)\n")
	fmt.Fprintf(w, "  %-24s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, t := range r.totals() {
		fmt.Fprintf(w, "  %-24s %7d %12.3f %12.3f\n", t.Name, t.Count, float64(t.TotalNS)/1e6, float64(t.SelfNS)/1e6)
	}
}

// writeFile writes every span as one JSON array.
func (r *spanRecorder) writeFile(path string) error {
	data, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
