package core

import (
	"math"
	"testing"

	"streamtri/internal/graph"
	"streamtri/internal/randx"
)

// figure1Stream reconstructs the paper's Figure 1 example stream: eleven
// edges forming triangles t1={e1,e2,e3}, t2={e4,e5,e6}, t3={e4,e7,e8},
// with c(e1)=2 and c(e4)=7 (validated in internal/exact tests).
func figure1Stream() []graph.Edge {
	return []graph.Edge{
		{U: 1, V: 2}, {U: 2, V: 3}, {U: 1, V: 3},
		{U: 4, V: 5}, {U: 5, V: 6}, {U: 4, V: 6},
		{U: 5, V: 7}, {U: 4, V: 7},
		{U: 4, V: 8}, {U: 5, V: 9}, {U: 4, V: 10},
	}
}

var (
	fig1T1 = graph.MakeTriangle(1, 2, 3)
	fig1T2 = graph.MakeTriangle(4, 5, 6)
	fig1T3 = graph.MakeTriangle(4, 5, 7)
)

// TestLemma31SamplingDistribution verifies Lemma 3.1 empirically:
// Pr[t = t*] = 1/(m·C(t*)). On the Figure 1 stream with m=11:
// Pr[t1] = 1/(11·2) = 1/22 and Pr[t2] = Pr[t3] = 1/(11·7) = 1/77.
func TestLemma31SamplingDistribution(t *testing.T) {
	stream := figure1Stream()
	rng := randx.New(42)
	const trials = 300000
	counts := map[graph.Triangle]int{}
	none := 0
	for trial := 0; trial < trials; trial++ {
		var est Estimator
		for i, e := range stream {
			est.process(e, uint64(i+1), rng)
		}
		if tri, ok := est.Triangle(); ok {
			counts[tri]++
		} else {
			none++
		}
	}
	check := func(tri graph.Triangle, want float64) {
		got := float64(counts[tri]) / trials
		if math.Abs(got-want) > 0.15*want {
			t.Errorf("Pr[%v] = %v, want %v ±15%%", tri, got, want)
		}
	}
	check(fig1T1, 1.0/22)
	check(fig1T2, 1.0/77)
	check(fig1T3, 1.0/77)
	if counts[fig1T1]+counts[fig1T2]+counts[fig1T3]+none != trials {
		t.Fatal("sampled a non-triangle")
	}
}

// TestLemma32Unbiased verifies E[τ̃] = τ on the Figure 1 stream by
// averaging many independent single estimators.
func TestLemma32Unbiased(t *testing.T) {
	stream := figure1Stream()
	rng := randx.New(7)
	const trials = 300000
	var sum float64
	for trial := 0; trial < trials; trial++ {
		var est Estimator
		for i, e := range stream {
			est.process(e, uint64(i+1), rng)
		}
		sum += est.TriangleEstimate(uint64(len(stream)))
	}
	got := sum / trials
	if math.Abs(got-3) > 0.1 {
		t.Fatalf("E[τ̃] = %v, want 3", got)
	}
}

// TestWedgeEstimateUnbiased verifies E[ζ̃] = ζ (Lemma 3.10) on the
// Figure 1 stream; ζ is computed from Claim 3.9 as Σ c(e).
func TestWedgeEstimateUnbiased(t *testing.T) {
	stream := figure1Stream()
	// Exact ζ via degrees: deg(1)=deg(2)=deg(3)=2, deg(4)=5, deg(5)=4,
	// deg(6)=deg(7)=2, deg(8)=deg(9)=deg(10)=1.
	// ζ = 3·1 + C(5,2) + C(4,2) + 2·1 = 3+10+6+2 = 21.
	const wantZ = 21.0
	rng := randx.New(8)
	const trials = 200000
	var sum float64
	for trial := 0; trial < trials; trial++ {
		var est Estimator
		for i, e := range stream {
			est.process(e, uint64(i+1), rng)
		}
		sum += est.WedgeEstimate(uint64(len(stream)))
	}
	got := sum / trials
	if math.Abs(got-wantZ) > 0.02*wantZ {
		t.Fatalf("E[ζ̃] = %v, want %v", got, wantZ)
	}
}

func TestEstimatorEmptyState(t *testing.T) {
	var est Estimator
	if est.TriangleEstimate(0) != 0 || est.WedgeEstimate(0) != 0 {
		t.Fatal("empty estimator must estimate 0")
	}
	if _, ok := est.Triangle(); ok {
		t.Fatal("empty estimator holds a triangle")
	}
	if est.HasTriangle() {
		t.Fatal("HasTriangle on empty state")
	}
}

func TestEstimatorFirstEdgeAlwaysSampled(t *testing.T) {
	rng := randx.New(9)
	var est Estimator
	est.process(graph.Edge{U: 1, V: 2}, 1, rng)
	e, pos, ok := est.Level1()
	if !ok || pos != 1 || e != (graph.Edge{U: 1, V: 2}) {
		t.Fatalf("first edge not sampled: %v %d %v", e, pos, ok)
	}
}

// TestEstimatorBytes pins an estimator's in-memory size: two edges and
// three 64-bit words, with the flags in r2's position word. The paper's
// C++ implementation takes 36 bytes (Section 4.3).
func TestEstimatorBytes(t *testing.T) {
	if got := EstimatorBytes(); got != 40 {
		t.Fatalf("EstimatorBytes() = %d, want 40", got)
	}
}

func TestClosesWedge(t *testing.T) {
	est := Estimator{
		r1: graph.Edge{U: 1, V: 2},
		r2: graph.Edge{U: 2, V: 3}, r2PosFlags: flagR1 | flagR2,
	}
	if !est.closesWedge(graph.Edge{U: 1, V: 3}) {
		t.Fatal("1-3 closes the wedge 1-2-3")
	}
	if !est.closesWedge(graph.Edge{U: 3, V: 1}) {
		t.Fatal("orientation must not matter")
	}
	for _, e := range []graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 1, V: 4}, {U: 3, V: 4}, {U: 5, V: 6}} {
		if est.closesWedge(e) {
			t.Fatalf("%v should not close wedge 1-2-3", e)
		}
	}
}

// TestTriangleVerticesFromWedge checks the triangle reconstruction from
// (r1, r2): shared vertex plus the two outer endpoints.
func TestTriangleVerticesFromWedge(t *testing.T) {
	est := Estimator{
		r1: graph.Edge{U: 7, V: 3},
		r2: graph.Edge{U: 9, V: 7}, r2PosFlags: flagR1 | flagR2 | flagT,
		c: 5,
	}
	tri, ok := est.Triangle()
	if !ok || tri != graph.MakeTriangle(3, 7, 9) {
		t.Fatalf("Triangle() = %v, %v", tri, ok)
	}
	if est.TriangleEstimate(10) != 50 {
		t.Fatalf("TriangleEstimate = %v, want c*m = 50", est.TriangleEstimate(10))
	}
}
