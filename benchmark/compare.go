package main

import (
	"fmt"
	"io"
	"math"
)

// comparison is one (end-to-end metric, workload) pair of two results
// files: a is the baseline, b the candidate.
type comparison struct {
	Workload, Metric string
	A, B             Sample
	// Worse is how much worse b's value is than a's, in the metric's
	// unit (negative: better). Allowed is max(rel*a, abs).
	Worse, Allowed float64
	// Outside: b is worse than a by more than the bound.
	Outside bool
	// Unresolved: the quartile spread of either side's value exceeds the
	// bound, so the two runs cannot tell a change of that size from
	// noise.
	Unresolved bool
}

// valueSpread estimates the quartile spread of a sample's value. The
// value is a median over n passes (or a quantile pooled over them), so
// what decides whether two runs can resolve a change is the spread of
// that median, not of single passes — the passes of a kv workload even
// run different op streams on purpose. For n independent passes whose
// own quartiles are q1 and q3, the sampling distribution of their median
// has an interquartile range of about 1.2533*(q3-q1)/sqrt(n). Passes of
// one process are not independent of the machine's mood, so this is a
// floor: README.md gives the spread measured between invocations.
func valueSpread(s Sample) float64 {
	n := max(len(s.Raw), 1)
	return 1.2533 * (s.Q3 - s.Q1) / math.Sqrt(float64(n))
}

// compareSample applies a metric's bound on one workload.
func compareSample(d *metricDef, workload string, a, b Sample) comparison {
	c := comparison{Workload: workload, Metric: d.Name, A: a, B: b}
	c.Worse = b.Value - a.Value
	if d.Better == "higher" {
		c.Worse = -c.Worse
	}
	c.Allowed = max(d.relBound(workload)*math.Abs(a.Value), d.Abs)
	c.Outside = c.Worse > c.Allowed
	c.Unresolved = valueSpread(a) > c.Allowed || valueSpread(b) > c.Allowed
	return c
}

// compareResults pairs every end-to-end metric of every workload both
// files hold.
func compareResults(a, b *Results) ([]comparison, error) {
	var out []comparison
	for _, wl := range allWorkloads {
		ra, rb := a.Workloads[wl], b.Workloads[wl]
		if ra == nil || rb == nil {
			continue
		}
		for i := range endToEndMetrics {
			d := &endToEndMetrics[i]
			if !d.appliesTo(wl) {
				continue
			}
			sa, okA := ra.EndToEnd[d.Name]
			sb, okB := rb.EndToEnd[d.Name]
			if !okA || !okB {
				return nil, fmt.Errorf("%s: %s is missing from one of the files", wl, d.Name)
			}
			out = append(out, compareSample(d, wl, sa, sb))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("the two files share no workload")
	}
	return out, nil
}

// runCompare prints the comparison of two results files and reports
// whether every pair stayed within its bound.
func runCompare(w io.Writer, pathA, pathB string) (ok bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	cs, err := compareResults(a, b)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a = %s (commit %s, seed %d)\nb = %s (commit %s, seed %d)\n", pathA, a.Commit, a.Seed, pathB, b.Commit, b.Seed)
	if a.Seconds != b.Seconds || a.GOMAXPROCS != b.GOMAXPROCS {
		fmt.Fprintf(w, "warning: the runs differ in length or GOMAXPROCS (a: %d s, %d; b: %d s, %d)\n", a.Seconds, a.GOMAXPROCS, b.Seconds, b.GOMAXPROCS)
	}
	fmt.Fprintf(w, "%-13s %-22s %-5s %12s %25s %12s %25s %9s %10s  %s\n",
		"workload", "metric", "clock", "a", "a [q1, q3]", "b", "b [q1, q3]", "diff", "bound", "verdict")
	ok = true
	outside, unresolved := 0, 0
	for _, c := range cs {
		rel := "n/a" // no relative difference from a zero baseline
		if c.A.Value != 0 {
			rel = fmt.Sprintf("%+.2f%%", (c.B.Value-c.A.Value)/math.Abs(c.A.Value)*100)
		}
		verdict := "ok"
		if c.Outside {
			verdict = "OUTSIDE BOUND"
			outside++
			ok = false
		}
		if c.Unresolved {
			verdict += " (unresolved: spread exceeds bound)"
			unresolved++
		}
		fmt.Fprintf(w, "%-13s %-22s %-5s %12.6g %25s %12.6g %25s %9s %10.4g  %s\n",
			c.Workload, c.Metric, c.A.Clock, c.A.Value, quartiles(c.A), c.B.Value, quartiles(c.B), rel, c.Allowed, verdict)
	}
	fmt.Fprintf(w, "%d pairs, %d outside their bound, %d unresolved\n", len(cs), outside, unresolved)
	return ok, nil
}

func quartiles(s Sample) string { return fmt.Sprintf("[%.6g, %.6g]", s.Q1, s.Q3) }
