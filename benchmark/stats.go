package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample by linear interpolation between the two neighbouring order
// statistics (position q*(n-1)). It is exact: no bucketing, every sample
// contributes its own value. NaN for an empty sample. int32 serves the
// pooled transaction latencies: millions of nanosecond samples, kept
// narrow so the arrays stay small next to the system under test.
func quantile[T int32 | float64](sorted []T, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := min(max(q, 0), 1) * float64(n-1)
	lo := int(pos)
	hi := min(lo+1, n-1)
	return float64(sorted[lo]) + (pos-float64(lo))*(float64(sorted[hi])-float64(sorted[lo]))
}

// summary is a median with its quartiles and sample count.
type summary struct {
	median, q1, q3 float64
	n              int
}

func summarize(vs []float64) summary {
	s := slices.Clone(vs)
	slices.Sort(s)
	return summary{
		median: quantile(s, 0.5),
		q1:     quantile(s, 0.25),
		q3:     quantile(s, 0.75),
		n:      len(s),
	}
}

func median(vs []float64) float64 { return summarize(vs).median }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
