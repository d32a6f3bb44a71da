// Package stats supplies the aggregation and error metrics used by the
// estimators and the experiment harness: mean (Theorem 3.3), median of
// means (Theorem 3.4), and the mean-deviation accuracy measure reported in
// the paper's Section 4.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median of xs (average of the two middle elements for
// even length), or 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// MedianOfMeans partitions xs into groups contiguous groups of (nearly)
// equal size, averages each group, and returns the median of the group
// means. This is the aggregation used in Theorem 3.4 to convert a
// Chebyshev guarantee into an (ε,δ) guarantee. groups is clamped to
// [1, len(xs)].
func MedianOfMeans(xs []float64, groups int) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if groups < 1 {
		groups = 1
	}
	if groups > n {
		groups = n
	}
	means := make([]float64, 0, groups)
	for g := 0; g < groups; g++ {
		lo := g * n / groups
		hi := (g + 1) * n / groups
		means = append(means, Mean(xs[lo:hi]))
	}
	return Median(means)
}

// RelativeError returns |est - truth| / truth. It returns +Inf when truth
// is 0 and est is not, and 0 when both are 0.
func RelativeError(est, truth float64) float64 {
	if truth == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-truth) / math.Abs(truth)
}

// Deviation summarizes relative errors over repeated trials, matching the
// min/mean/max deviation columns of Table 3 (values are fractions; the
// tables print them as percentages).
type Deviation struct {
	Min, Mean, Max float64
	N              int
}

// MeanDeviation computes the deviation summary of estimates against the
// true value.
func MeanDeviation(estimates []float64, truth float64) Deviation {
	d := Deviation{Min: math.Inf(1), Max: math.Inf(-1), N: len(estimates)}
	if len(estimates) == 0 {
		return Deviation{}
	}
	var sum float64
	for _, e := range estimates {
		re := RelativeError(e, truth)
		sum += re
		if re < d.Min {
			d.Min = re
		}
		if re > d.Max {
			d.Max = re
		}
	}
	d.Mean = sum / float64(len(estimates))
	return d
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation, or 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	if q <= 0 {
		return tmp[0]
	}
	if q >= 1 {
		return tmp[len(tmp)-1]
	}
	pos := q * float64(len(tmp)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(tmp) {
		return tmp[len(tmp)-1]
	}
	return tmp[lo]*(1-frac) + tmp[lo+1]*frac
}

// Variance returns the population variance of xs (0 for fewer than two
// samples).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// ChiSquareZ tests observed category counts against the probabilities
// p of a fully specified law (Σp = 1, every p > 0) with Pearson's χ²
// statistic, X² = Σ (o − n·p)²/(n·p) over n = Σ observed draws, on
// df = len(p) − 1 degrees of freedom. It returns the statistic
// standardized by the χ² law's mean and variance, z = (X² − df)/√(2·df),
// which is about standard normal for large df, so a test can hold it to
// a fixed bound whatever the number of categories. It panics when the
// slices differ in length or hold fewer than two categories.
func ChiSquareZ(observed []int, p []float64) float64 {
	if len(observed) != len(p) || len(p) < 2 {
		panic("stats: ChiSquareZ needs two or more categories, one probability each")
	}
	n := 0
	for _, o := range observed {
		n += o
	}
	var x2 float64
	for i, o := range observed {
		e := float64(n) * p[i]
		d := float64(o) - e
		x2 += d * d / e
	}
	df := float64(len(p) - 1)
	return (x2 - df) / math.Sqrt(2*df)
}
