package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// passMode says what a pass is for.
type passMode int

const (
	passWarmup passMode = iota // untimed, part of set-up
	passTimed                  // the end-to-end metrics
	passTraced                 // one extra pass with obsv collectors on
)

// setupReps is how many times a run sets the workload up (construction
// plus one untimed warm-up pass); setup_s is the median, so one slow
// first set-up (cold heap, cold page cache) does not decide it. A
// workload whose pass is short is set up more often — about two seconds'
// worth — because a 0.09 s set-up is at the mercy of one GC cycle.
func (w *workloadDef) setupReps() int {
	return min(15, max(3, int(math.Round(2/w.nominalPassS))))
}

type runOptions struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	small    bool // test scale
	passes   int  // 0: derive from seconds
}

// runWorkload sets one workload up, runs its timed passes and, when
// asked, the traced pass and the probes. start is when the process (or
// the caller's clock) started: the first set-up is measured from there.
func runWorkload(o runOptions, start time.Time) (*WorkloadResult, *spanRecorder, error) {
	wl := findWorkload(o.workload)
	if wl == nil {
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(allWorkloads, ", "))
	}
	r := &runner{small: o.small}
	if o.trace {
		r.spans = newSpanRecorder(wl.name)
	}
	passes := o.passes
	if passes == 0 {
		passes = wl.passes(o.seconds)
	}
	res := &WorkloadResult{Passes: passes, SeedNote: wl.seedNote, EndToEnd: map[string]Sample{}}
	account := func(pd *passData) {
		res.Attempted += pd.attempted
		res.Failed += pd.failed
		res.Failures = append(res.Failures, pd.failures...)
	}

	var inst instance
	setups := make([]float64, wl.setupReps())
	buildMS := make([]float64, len(setups))
	for i := range setups {
		end := r.spans.begin("setup", "")
		endBuild := r.spans.begin("apps.build", "")
		t0 := time.Now()
		inst = wl.build(r, o.seed, passes)
		buildMS[i] = float64(time.Since(t0)) / 1e6
		endBuild()
		account(inst.pass(r, passWarmup))
		end()
		setups[i] = time.Since(start).Seconds()
		runtime.GC()
		start = time.Now()
	}
	// Spans cover the set-ups, the traced pass and the probes; the timed
	// passes run with the recorder off, like the obsv collectors.
	spans := r.spans
	r.spans = nil

	samples := map[string][]float64{}
	ident := newIdentity()
	for p := 0; p < passes; p++ {
		runtime.GC() // outside the timed region, so every pass starts from the same heap
		pd := inst.pass(r, passTimed)
		account(pd)
		ident.add(pd)
		if pd.failed > 0 {
			continue // a failed cell counts as missing every timing
		}
		for name, v := range pd.perPass {
			samples[name] = append(samples[name], v)
		}
	}
	// Read before the traced pass, so a -trace invocation reports the
	// same end-to-end numbers as a plain one.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}

	for i := range endToEndMetrics {
		d := &endToEndMetrics[i]
		if vs, ok := samples[d.Name]; ok && d.appliesTo(wl.name) {
			res.EndToEnd[d.Name] = perPassSample(d, vs)
		}
	}
	res.EndToEnd["setup_s"] = perPassSample(e2eDef("setup_s"), setups)
	res.EndToEnd["host_peak_rss_mb"] = oneValue(e2eDef("host_peak_rss_mb"), rss, 1)
	share := float64(res.Failed) / float64(max(res.Attempted, 1))
	res.EndToEnd["failed_share"] = oneValue(e2eDef("failed_share"), share, res.Attempted)
	inst.finish(res)
	res.SimIdentity = ident.report()
	res.Paper = paperRefs(samples)
	for i := range endToEndMetrics {
		d := &endToEndMetrics[i]
		if s, ok := res.EndToEnd[d.Name]; d.appliesTo(wl.name) && (!ok || math.IsNaN(s.Value)) {
			return res, spans, fmt.Errorf("%s: no sample of %s (every pass failed: %s)", wl.name, d.Name, strings.Join(res.Failures, "; "))
		}
	}

	if o.trace {
		r.spans = spans
		runtime.GC()
		pd := inst.pass(r, passTraced)
		account(pd)
		if pd.failed > 0 {
			return res, spans, fmt.Errorf("%s: traced pass failed: %s", wl.name, strings.Join(pd.failures, "; "))
		}
		layer, err := layerMetrics(r, wl.name, inst, pd, res.EndToEnd["host_pass_s"].Value)
		if err != nil {
			return res, spans, fmt.Errorf("%s: %w", wl.name, err)
		}
		layer["apps.build_ms"] = median(buildMS)
		if err := checkLayerMetrics(wl.name, layer); err != nil {
			return res, spans, err
		}
		res.PerLayer = map[string]Sample{}
		for i := range perLayerMetrics {
			d := &perLayerMetrics[i]
			if d.appliesTo(wl.name) {
				res.PerLayer[d.Name] = oneValue(d, layer[d.Name], 1)
			}
		}
	}
	return res, spans, nil
}

// perPassSample summarizes per-pass values: the median with quartiles.
func perPassSample(d *metricDef, vs []float64) Sample {
	s := summarize(vs)
	return Sample{Value: s.median, Unit: d.Unit, Clock: d.Clock, Q1: s.q1, Q3: s.q3, N: s.n, Raw: vs}
}

// oneValue is a metric read once per run: no passes behind it, so no
// quartiles of its own.
func oneValue(d *metricDef, v float64, n int) Sample {
	return Sample{Value: v, Unit: d.Unit, Clock: d.Clock, Q1: v, Q3: v, N: n}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM line in /proc/self/status")
}

// identity tracks, per cell, whether the simulated quantities repeated
// exactly over the timed passes.
type identity struct {
	order []string
	cells map[string]*cellTrack
}

type cellTrack struct {
	CellIdentity
	minNS, maxNS int64
}

func newIdentity() *identity { return &identity{cells: map[string]*cellTrack{}} }

func (id *identity) add(pd *passData) {
	if pd.ownInputs {
		return
	}
	for i, cell := range pd.cellIDs {
		f := pd.facts[i]
		if f == (simFacts{}) {
			continue // the cell failed
		}
		c := id.cells[cell]
		if c == nil {
			c = &cellTrack{
				CellIdentity: CellIdentity{Cell: cell, ExecTime: true, LogBytes: true, NetMsgs: true, NetBytes: true, Flushes: true, First: f},
				minNS:        f.ExecNS, maxNS: f.ExecNS,
			}
			id.cells[cell] = c
			id.order = append(id.order, cell)
		}
		c.Passes++
		c.ExecTime = c.ExecTime && f.ExecNS == c.First.ExecNS
		c.LogBytes = c.LogBytes && f.LogBytes == c.First.LogBytes
		c.NetMsgs = c.NetMsgs && f.NetMsgs == c.First.NetMsgs
		c.NetBytes = c.NetBytes && f.NetBytes == c.First.NetBytes
		c.Flushes = c.Flushes && f.Flushes == c.First.Flushes
		c.minNS, c.maxNS = min(c.minNS, f.ExecNS), max(c.maxNS, f.ExecNS)
	}
}

func (id *identity) report() []CellIdentity {
	out := make([]CellIdentity, 0, len(id.order))
	for _, cell := range id.order {
		c := id.cells[cell]
		if c.minNS > 0 {
			c.ExecSpreadPct = float64(c.maxNS-c.minNS) / float64(c.minNS) * 100
		}
		out = append(out, c.CellIdentity)
	}
	return out
}

// The paper's values, from EXPERIMENTS.md (means over the four
// applications, in the form the metric uses).
var paperValues = map[string]struct {
	lo, hi float64
	note   string
}{
	"ccl_norm_exec_pct":          {101, 106, "paper: CCL adds 1-6% (Fig. 4); error is the distance to that band"},
	"ml_norm_exec_pct":           {116.25, 116.25, "paper: ML 124/118/114/109 (Fig. 4), mean 116.25"},
	"ccl_ml_log_ratio_pct":       {8.475, 8.475, "paper: CCL log 12.5/8.7/8.2/4.5% of ML's (Table 2), mean 8.475"},
	"recovery.ccl_reduction_pct": {68.5, 68.5, "paper: CCL-recovery 84/73/62/55% faster than re-execution (Fig. 5), mean 68.5"},
	"recovery.ml_reduction_pct":  {56, 56, "paper: ML-recovery 66/58/57/43% faster than re-execution (Fig. 5), mean 56"},
}

var paperOrder = []string{"ccl_norm_exec_pct", "ml_norm_exec_pct", "ccl_ml_log_ratio_pct", "recovery.ccl_reduction_pct", "recovery.ml_reduction_pct"}

// paperRefs sets the reproduced quantities the workload measured beside
// the paper's.
func paperRefs(samples map[string][]float64) []PaperRef {
	var out []PaperRef
	for _, name := range paperOrder {
		vs, ok := samples[name]
		if !ok {
			continue
		}
		p, v := paperValues[name], median(vs)
		ref := PaperRef{Metric: name, Measured: v, Paper: (p.lo + p.hi) / 2, Note: p.note}
		switch {
		case v < p.lo:
			ref.ErrorPts = v - p.lo
		case v > p.hi:
			ref.ErrorPts = v - p.hi
		}
		out = append(out, ref)
	}
	return out
}

// printWorkload prints every metric by name with its unit and clock.
func printWorkload(w io.Writer, name string, res *WorkloadResult, spans *spanRecorder) {
	fmt.Fprintf(w, "\n== %s: %d passes; %s\n", name, res.Passes, res.SeedNote)
	fmt.Fprintf(w, "end-to-end (median over passes, or pooled; quartiles are over passes)\n")
	fmt.Fprintf(w, "  %-24s %14s %-6s %-6s %14s %14s %8s\n", "metric", "value", "unit", "clock", "q1", "q3", "n")
	for i := range endToEndMetrics {
		d := &endToEndMetrics[i]
		if s, ok := res.EndToEnd[d.Name]; ok {
			fmt.Fprintf(w, "  %-24s %14.6g %-6s %-6s %14.6g %14.6g %8d\n", d.Name, s.Value, s.Unit, s.Clock, s.Q1, s.Q3, s.N)
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}

	fmt.Fprintf(w, "sim identity across the %d timed passes (a change to the Go code alone must keep these)\n", res.Passes)
	if len(res.SimIdentity) == 0 {
		fmt.Fprintf(w, "  (none: every timed pass of this workload runs an op stream of its own)\n")
	}
	fmt.Fprintf(w, "  %-24s %-9s %-9s %-9s %-9s %-9s %s\n", "cell", "exec", "log_bytes", "net_msgs", "net_bytes", "flushes", "exec spread")
	for _, c := range res.SimIdentity {
		fmt.Fprintf(w, "  %-24s %-9s %-9s %-9s %-9s %-9s %.3f%%\n", c.Cell,
			same(c.ExecTime), same(c.LogBytes), same(c.NetMsgs), same(c.NetBytes), same(c.Flushes), c.ExecSpreadPct)
	}
	for _, p := range res.Paper {
		fmt.Fprintf(w, "  paper: %-28s measured %8.2f  paper %8.2f  error %+6.2f points  (%s)\n", p.Metric, p.Measured, p.Paper, p.ErrorPts, p.Note)
	}

	if res.PerLayer != nil {
		fmt.Fprintf(w, "per-layer (traced pass and host probes)\n")
		for i := range perLayerMetrics {
			d := &perLayerMetrics[i]
			if s, ok := res.PerLayer[d.Name]; ok {
				fmt.Fprintf(w, "  %-32s %14.6g %-6s %-6s\n", d.Name, s.Value, s.Unit, s.Clock)
			}
		}
		spans.print(w)
	}
}

func same(b bool) string {
	if b {
		return "same"
	}
	return "DRIFTS"
}
