package main

import (
	"math"
	"slices"
)

// dist summarises one timing: its median, its tail percentile and the
// number of samples behind both.
type dist struct {
	P50   float64
	Tail  float64
	TailQ float64 // the percentile Tail reports, as a fraction (0.99 = p99)
	N     int
}

// tailLevels are the percentiles a tail may be reported at, highest
// first. A tail is the highest level with at least ten samples beyond it.
var tailLevels = []float64{0.9999, 0.999, 0.99, 0.9}

// tailQ picks the tail percentile for n samples; with fewer than 100
// samples no level has ten beyond it and the tail falls back to the
// median.
func tailQ(n int) float64 {
	for _, q := range tailLevels {
		if float64(n)*(1-q) >= 10-1e-6 { // 1-q is inexact in binary
			return q
		}
	}
	return 0.5
}

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median is the midpoint median (the mean of the two middle samples for
// an even count), which is what the end-to-end metrics report.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summarize computes a dist over xs. An empty input gives the zero dist:
// a layer the workload does not exercise reports 0 with n = 0.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := tailQ(len(s))
	return dist{P50: median(s), Tail: quantile(s, q), TailQ: q, N: len(s)}
}

// ratio is a/b, or 0 when b is 0 (a layer with no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
