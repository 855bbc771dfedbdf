package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100): the
// smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailPermille are the candidate tail percentiles in tenths of a
// percent (so the arithmetic stays exact), highest first.
var tailPermille = []int{999, 990, 900}

// tailPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it, so the tail it reports is measured
// rather than a single outlier; 0 means n is too small for any tail.
func tailPercentile(n int) float64 {
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 0
}

// quartiles returns the first and third quartiles with the same
// exclusive method as Python's statistics.quantiles(xs, n=4), so the
// spread the harness reports matches the one computed over its output.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// Python: j = i*(n+1)//4 clamped to 1..n-1, delta = i*(n+1) - 4j,
		// then interpolate between s[j-1] and s[j].
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// summary renders a sample set as median, quartiles, tail percentile
// (when there are enough samples) and count, for the harness's
// human-readable log.
func summary(name, unit string, xs []float64) string {
	var b strings.Builder
	q1, q3 := quartiles(xs)
	fmt.Fprintf(&b, "%-26s median %.6g %s  q1 %.6g  q3 %.6g", name, median(xs), unit, q1, q3)
	if p := tailPercentile(len(xs)); p > 0 {
		fmt.Fprintf(&b, "  p%g %.6g", p, percentile(xs, p))
	} else {
		fmt.Fprintf(&b, "  max %.6g", percentile(xs, 100))
	}
	fmt.Fprintf(&b, "  n=%d", len(xs))
	return b.String()
}

// byHold keeps samples per checkpoint hold point: states captured at
// different simulated times differ in size, so each hold is its own
// sample population.
type byHold [][]float64

func (h *byHold) add(hold int, v float64) {
	for len(*h) <= hold {
		*h = append(*h, nil)
	}
	(*h)[hold] = append((*h)[hold], v)
}

func (h *byHold) merge(o byHold) {
	for i, xs := range o {
		for _, v := range xs {
			h.add(i, v)
		}
	}
}

// all flattens the samples of every hold.
func (h byHold) all() []float64 {
	var out []float64
	for _, xs := range h {
		out = append(out, xs...)
	}
	return out
}

// estimate is the mean over holds of each hold's median: a robust
// per-hold centre that does not depend on how many samples each hold
// contributed, averaged so every hold weighs the same.
func (h byHold) estimate() float64 {
	var sum float64
	n := 0
	for _, xs := range h {
		if len(xs) > 0 {
			sum += median(xs)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
