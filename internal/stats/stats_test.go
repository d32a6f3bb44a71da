package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("Mean wrong")
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Fatal("Median(nil)")
	}
	if !almost(Median([]float64{5}), 5) {
		t.Fatal("single")
	}
	if !almost(Median([]float64{3, 1, 2}), 2) {
		t.Fatal("odd")
	}
	if !almost(Median([]float64{4, 1, 3, 2}), 2.5) {
		t.Fatal("even")
	}
	// Input must not be reordered.
	in := []float64{9, 1, 5}
	Median(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Fatal("Median mutated input")
	}
}

func TestMedianOfMeans(t *testing.T) {
	xs := []float64{1, 1, 1, 100, 1, 1, 1, 1, 1}
	// With 3 groups of 3, group means are {1, 34, 1}; median = 1... the
	// outlier lands in the middle group: groups [1,1,1] [100,1,1] [1,1,1]
	got := MedianOfMeans(xs, 3)
	if !almost(got, 1) {
		t.Fatalf("MedianOfMeans = %v, want 1 (outlier suppressed)", got)
	}
	// One group degenerates to the mean.
	if !almost(MedianOfMeans(xs, 1), Mean(xs)) {
		t.Fatal("groups=1 should equal mean")
	}
	// groups > n degenerates to the median.
	if !almost(MedianOfMeans([]float64{1, 2, 3}, 10), 2) {
		t.Fatal("groups>n should equal median")
	}
	if MedianOfMeans(nil, 3) != 0 {
		t.Fatal("empty")
	}
	if !almost(MedianOfMeans(xs, 0), Mean(xs)) {
		t.Fatal("groups clamped to 1")
	}
}

func TestMedianOfMeansCoversAllElements(t *testing.T) {
	// Property: for any xs and groups, each element lands in exactly one
	// group, so the weighted average of group means equals the mean.
	f := func(raw []float64, gRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for i := range raw {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				raw[i] = 1
			}
			// Keep magnitudes tame to avoid float blowups.
			raw[i] = math.Mod(raw[i], 1e6)
		}
		groups := int(gRaw%8) + 1
		n := len(raw)
		var weighted float64
		for g := 0; g < groups; g++ {
			lo, hi := g*n/groups, (g+1)*n/groups
			weighted += Mean(raw[lo:hi]) * float64(hi-lo)
		}
		return math.Abs(weighted/float64(n)-Mean(raw)) < 1e-6*(1+math.Abs(Mean(raw)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRelativeError(t *testing.T) {
	if !almost(RelativeError(110, 100), 0.1) {
		t.Fatal("10% error")
	}
	if !almost(RelativeError(90, 100), 0.1) {
		t.Fatal("symmetric")
	}
	if RelativeError(0, 0) != 0 {
		t.Fatal("0/0")
	}
	if !math.IsInf(RelativeError(1, 0), 1) {
		t.Fatal("x/0")
	}
}

func TestMeanDeviation(t *testing.T) {
	d := MeanDeviation([]float64{90, 100, 120}, 100)
	if !almost(d.Min, 0) || !almost(d.Max, 0.2) || !almost(d.Mean, 0.1) || d.N != 3 {
		t.Fatalf("deviation = %+v", d)
	}
	if zero := MeanDeviation(nil, 5); zero.N != 0 || zero.Mean != 0 {
		t.Fatalf("empty deviation = %+v", zero)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if !almost(Quantile(xs, 0), 10) || !almost(Quantile(xs, 1), 50) {
		t.Fatal("extremes")
	}
	if !almost(Quantile(xs, 0.5), 30) {
		t.Fatal("median quantile")
	}
	if !almost(Quantile(xs, 0.25), 20) {
		t.Fatal("q1")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty")
	}
}

func TestVariance(t *testing.T) {
	if Variance([]float64{5}) != 0 {
		t.Fatal("single sample")
	}
	if !almost(Variance([]float64{1, 1, 1}), 0) {
		t.Fatal("constant")
	}
	// Population variance of {2, 4}: mean 3, var = 1.
	if !almost(Variance([]float64{2, 4}), 1) {
		t.Fatal("pair")
	}
}

func TestChiSquareZ(t *testing.T) {
	// Counts equal to their expectations give X² = 0, so z = −df/√(2df).
	if z := ChiSquareZ([]int{25, 25, 50}, []float64{0.25, 0.25, 0.5}); !almost(z, -1) {
		t.Fatalf("exact fit on two degrees of freedom: z = %v, want −1", z)
	}
	// X² = (60−50)²/50 + (40−50)²/50 = 4 on one degree of freedom.
	z := ChiSquareZ([]int{60, 40}, []float64{0.5, 0.5})
	if want := 3 / math.Sqrt(2); !almost(z, want) {
		t.Fatalf("z = %v, want %v", z, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a single category must panic")
		}
	}()
	ChiSquareZ([]int{1}, []float64{1})
}
