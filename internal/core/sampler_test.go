package core

import (
	"math"
	"testing"

	"streamtri/internal/exact"
	"streamtri/internal/gen"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

// TestUnifTriUniformity verifies Lemma 3.7: after the rejection step,
// every triangle is produced with equal probability — even though the raw
// neighborhood samples are biased (on Figure 1, t1 is ~3.5x more likely
// than t2/t3 before correction).
func TestUnifTriUniformity(t *testing.T) {
	edges := figure1Stream()
	dt := stream.NewDegreeTracker()
	dt.AddBatch(edges)
	maxDeg := dt.MaxDegree() // Δ = 5 (vertex 4)

	rng := randx.New(20)
	const trials = 400000
	raw := map[graph.Triangle]int{}
	accepted := map[graph.Triangle]int{}
	for trial := 0; trial < trials; trial++ {
		var est Estimator
		for i, e := range edges {
			est.process(e, uint64(i+1), rng)
		}
		if tri, ok := est.Triangle(); ok {
			raw[tri]++
		}
		if tri, ok := UniformTriangle(&est, maxDeg, rng); ok {
			accepted[tri]++
		}
	}

	// Raw bias: Pr[t1]/Pr[t2] = 77/22 = 3.5.
	if raw[fig1T2] == 0 || float64(raw[fig1T1])/float64(raw[fig1T2]) < 2.5 {
		t.Fatalf("expected raw bias toward t1: raw=%v", raw)
	}

	// After rejection: all three equal at 1/(2mΔ) = 1/110 each.
	want := float64(trials) / 110
	for _, tri := range []graph.Triangle{fig1T1, fig1T2, fig1T3} {
		got := float64(accepted[tri])
		if math.Abs(got-want) > 0.1*want {
			t.Errorf("accepted[%v] = %v, want %v ±10%%", tri, got, want)
		}
	}
}

func TestUnifTriAcceptanceRate(t *testing.T) {
	// Lemma 3.7: Pr[some triangle returned] ≥ τ/(2mΔ); on Figure 1 it is
	// exactly 3/110.
	edges := figure1Stream()
	rng := randx.New(21)
	const trials = 200000
	acc := 0
	for trial := 0; trial < trials; trial++ {
		var est Estimator
		for i, e := range edges {
			est.process(e, uint64(i+1), rng)
		}
		if _, ok := UniformTriangle(&est, 5, rng); ok {
			acc++
		}
	}
	got := float64(acc) / trials
	want := 3.0 / 110
	if math.Abs(got-want) > 0.1*want {
		t.Fatalf("acceptance rate = %v, want %v", got, want)
	}
}

func TestSampleTrianglesK(t *testing.T) {
	// A triangle-rich graph and plenty of estimators: sampling k=25 must
	// succeed, and the samples must be valid triangles of the graph.
	edges := stream.Shuffle(gen.Syn3RegPaper(), randx.New(22))
	g := graph.MustFromEdges(edges)
	c := runBulk(edges, 60000, 23, 8192)
	res := SampleTriangles(c, 25, uint64(g.MaxDegree()), randx.New(24))
	if !res.OK {
		t.Fatalf("sampling failed: accepted only %d", res.Accepted)
	}
	if len(res.Triangles) != 25 {
		t.Fatalf("got %d triangles", len(res.Triangles))
	}
	for _, tri := range res.Triangles {
		if !g.HasEdge(tri.A, tri.B) || !g.HasEdge(tri.A, tri.C) || !g.HasEdge(tri.B, tri.C) {
			t.Fatalf("sampled non-triangle %v", tri)
		}
	}
}

func TestSampleTrianglesFailure(t *testing.T) {
	// Triangle-free graph: sampling must fail gracefully.
	edges := gen.Path(50)
	c := runBulk(edges, 200, 25, 16)
	res := SampleTriangles(c, 1, 2, randx.New(26))
	if res.OK || res.Accepted != 0 || len(res.Triangles) != 0 {
		t.Fatalf("expected failure on triangle-free graph: %+v", res)
	}
}

func TestSampleTrianglesUniformOverPlanted(t *testing.T) {
	// 12 disjoint planted triangles: each should be sampled ≈ equally
	// often across many sampling rounds.
	edges := stream.Shuffle(gen.PlantedTriangles(randx.New(27), 12, 0, 0), randx.New(28))
	g := graph.MustFromEdges(edges)
	tau := exact.Triangles(g)
	if tau != 12 {
		t.Fatalf("τ = %d", tau)
	}
	counts := map[graph.Triangle]int{}
	total := 0
	const rounds = 40
	for round := uint64(0); round < rounds; round++ {
		c := runBulk(edges, 3000, 300+round, 512)
		res := SampleTriangles(c, 5, uint64(g.MaxDegree()), randx.New(600+round))
		for _, tri := range res.Triangles {
			counts[tri]++
			total++
		}
	}
	if total == 0 {
		t.Fatal("no triangles sampled at all")
	}
	want := float64(total) / 12
	for tri, n := range counts {
		if math.Abs(float64(n)-want) > 0.5*want+5 {
			t.Errorf("triangle %v sampled %d times, want ≈%v", tri, n, want)
		}
	}
}

func TestUniformTriangleEdgeCases(t *testing.T) {
	var est Estimator
	if _, ok := UniformTriangle(&est, 10, randx.New(29)); ok {
		t.Fatal("no triangle held but sampler accepted")
	}
	est = Estimator{
		r1: graph.Edge{U: 1, V: 2}, r2: graph.Edge{U: 2, V: 3},
		r2PosFlags: flagR1 | flagR2 | flagT, c: 4,
	}
	if _, ok := UniformTriangle(&est, 0, randx.New(30)); ok {
		t.Fatal("maxDeg=0 must reject")
	}
	// c = 2Δ → acceptance probability 1.
	est.c = 4
	if _, ok := UniformTriangle(&est, 2, randx.New(31)); !ok {
		t.Fatal("c = 2Δ must always accept")
	}
}

func TestSufficientSamplersFormula(t *testing.T) {
	got := SufficientSamplers(1, 1/math.E, 100, 10, 50)
	// 4·m·k·Δ·ln(e/δ)/τ with ln(e/δ)=2: 4·100·1·10·2/50 = 160.
	if math.Abs(got-160) > 1e-9 {
		t.Fatalf("SufficientSamplers = %v, want 160", got)
	}
	if SufficientSamplers(1, 0.1, 100, 10, 0) != 0 {
		t.Fatal("τ=0 must yield 0")
	}
}
