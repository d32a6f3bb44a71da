package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: with fewer, one outlier moves the figure.
const minTail = 10

// percentile returns the nearest-rank p-th quantile (0 < p < 1) of
// samples and whether the sample supports it, i.e. at least minTail
// samples lie strictly beyond its rank.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minTail
}

// quartiles returns Q1, median and Q3 of values by the same rule as
// Python's statistics.quantiles(values, n=4) (the "exclusive" method),
// so spreads computed here match the ones a Python harness computes.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(j int) float64 {
		// statistics.quantiles, method="exclusive": m = n+1.
		m := n + 1
		idx := min(max(j*m/4, 1), n-1)
		delta := j*m - idx*4
		lo, hi := s[idx-1], s[idx]
		return (lo*float64(4-delta) + hi*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median is the middle of values (mean of the two middles when even).
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
