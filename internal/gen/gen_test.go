package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"streamtri/internal/exact"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
)

func build(t *testing.T, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(edges)
	if err != nil {
		t.Fatalf("generator emitted non-simple graph: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestComplete(t *testing.T) {
	g := build(t, Complete(7))
	if g.NumEdges() != 21 || g.NumNodes() != 7 || g.MaxDegree() != 6 {
		t.Fatalf("K7: m=%d n=%d Δ=%d", g.NumEdges(), g.NumNodes(), g.MaxDegree())
	}
}

func TestPathCycleStar(t *testing.T) {
	if g := build(t, Path(10)); g.NumEdges() != 9 || exact.Triangles(g) != 0 {
		t.Fatal("Path(10) wrong")
	}
	if g := build(t, Cycle(10)); g.NumEdges() != 10 || g.MaxDegree() != 2 {
		t.Fatal("Cycle(10) wrong")
	}
	if g := build(t, Cycle(3)); exact.Triangles(g) != 1 {
		t.Fatal("Cycle(3) should be one triangle")
	}
	if g := build(t, Star(6)); g.MaxDegree() != 6 || exact.Triangles(g) != 0 {
		t.Fatal("Star(6) wrong")
	}
}

func TestER(t *testing.T) {
	rng := randx.New(1)
	g := build(t, ER(rng, 100, 400))
	if g.NumEdges() != 400 {
		t.Fatalf("ER edges = %d", g.NumEdges())
	}
	// Full graph corner case.
	g2 := build(t, ER(rng, 10, 45))
	if g2.NumEdges() != 45 {
		t.Fatalf("ER(10,45) = %d edges", g2.NumEdges())
	}
}

func TestERPanicsWhenOverfull(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ER(randx.New(2), 4, 7)
}

func TestSyn3RegPaperParameters(t *testing.T) {
	// Table 1: n=2000, m=3000, Δ=3, τ=1000 → mΔ/τ = 9.
	g := build(t, Syn3RegPaper())
	if g.NumNodes() != 2000 {
		t.Fatalf("n = %d, want 2000", g.NumNodes())
	}
	if g.NumEdges() != 3000 {
		t.Fatalf("m = %d, want 3000", g.NumEdges())
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("Δ = %d, want 3", g.MaxDegree())
	}
	if tau := exact.Triangles(g); tau != 1000 {
		t.Fatalf("τ = %d, want 1000", tau)
	}
	// 3-regular: every vertex has degree exactly 3.
	for _, v := range g.Nodes() {
		if g.Degree(v) != 3 {
			t.Fatalf("vertex %d has degree %d", v, g.Degree(v))
		}
	}
}

func TestSyn3RegGadgetCounts(t *testing.T) {
	g := build(t, Syn3Reg(2, 3))
	if g.NumNodes() != 2*4+3*6 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if g.NumEdges() != 2*6+3*9 {
		t.Fatalf("m = %d", g.NumEdges())
	}
	if tau := exact.Triangles(g); tau != 2*4+3*2 {
		t.Fatalf("τ = %d", tau)
	}
}

func TestHolmeKimBasics(t *testing.T) {
	rng := randx.New(3)
	const n, mPer = 2000, 4
	g := build(t, HolmeKim(rng, n, mPer, 0.6))
	if g.NumNodes() != n {
		t.Fatalf("n = %d, want %d", g.NumNodes(), n)
	}
	wantM := uint64((mPer+1)*mPer/2 + (n-mPer-1)*mPer)
	if g.NumEdges() != wantM {
		t.Fatalf("m = %d, want %d", g.NumEdges(), wantM)
	}
	// Triad formation must produce a triangle-rich graph.
	tau := exact.Triangles(g)
	if tau < uint64(n) {
		t.Fatalf("τ = %d, expected at least n=%d for pTriad=0.6", tau, n)
	}
}

func TestHolmeKimPowerLawTail(t *testing.T) {
	rng := randx.New(4)
	g := build(t, HolmeKim(rng, 3000, 3, 0.5))
	// Preferential attachment should produce a hub much larger than the
	// average degree (2m/n ≈ 6).
	if g.MaxDegree() < 30 {
		t.Fatalf("Δ = %d, expected a power-law hub ≫ mean degree", g.MaxDegree())
	}
}

func TestBarabasiAlbertFewerTriangles(t *testing.T) {
	rng := randx.New(5)
	ba := build(t, BarabasiAlbert(rng, 2000, 3))
	hk := build(t, HolmeKim(randx.New(5), 2000, 3, 0.8))
	if exact.Triangles(ba) >= exact.Triangles(hk) {
		t.Fatalf("BA τ=%d should be below HK τ=%d", exact.Triangles(ba), exact.Triangles(hk))
	}
}

func TestClusteredRegular(t *testing.T) {
	rng := randx.New(6)
	g := build(t, ClusteredRegular(rng, 10, 40, 0.5))
	if g.NumNodes() > 400 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	// Dense pockets mean lots of triangles relative to edges.
	tau := exact.Triangles(g)
	if tau == 0 {
		t.Fatal("expected triangles in dense clusters")
	}
	// Degree band is narrow: max degree can't exceed clusterSize-1.
	if g.MaxDegree() > 39 {
		t.Fatalf("Δ = %d escapes cluster", g.MaxDegree())
	}
	// Clusters are disjoint: no edge crosses a 40-aligned boundary.
	for _, e := range g.Edges() {
		if e.U/40 != e.V/40 {
			t.Fatalf("edge %v crosses clusters", e)
		}
	}
}

func TestHubGraph(t *testing.T) {
	rng := randx.New(7)
	g := build(t, HubGraph(rng, 5, 200, 0.02))
	if g.MaxDegree() < 200 {
		t.Fatalf("Δ = %d, want >= 200", g.MaxDegree())
	}
	tau := exact.Triangles(g)
	if tau == 0 {
		t.Fatal("pClose > 0 should create some triangles")
	}
	// High mΔ/τ regime.
	ratio := float64(g.NumEdges()) * float64(g.MaxDegree()) / float64(tau)
	if ratio < 100 {
		t.Fatalf("mΔ/τ = %v, expected the high-ratio Youtube regime", ratio)
	}
}

func TestPlantedTrianglesExactCount(t *testing.T) {
	rng := randx.New(8)
	for _, tc := range []struct{ tri, nodes, noise int }{
		{10, 100, 50}, {1, 10, 0}, {0, 50, 30}, {25, 200, 400},
	} {
		edges := PlantedTriangles(rng, tc.tri, tc.nodes, tc.noise)
		g := build(t, edges)
		if tau := exact.Triangles(g); tau != uint64(tc.tri) {
			t.Fatalf("planted %d triangles, counted %d", tc.tri, tau)
		}
	}
}

func TestIndexGadget(t *testing.T) {
	x := []bool{true, false, true, true}
	// Query a set bit: two triangles.
	g1 := build(t, IndexGadget(x, 2))
	if tau := exact.Triangles(g1); tau != 2 {
		t.Fatalf("set bit: τ = %d, want 2", tau)
	}
	// Query an unset bit: one triangle.
	g0 := build(t, IndexGadget(x, 1))
	if tau := exact.Triangles(g0); tau != 1 {
		t.Fatalf("unset bit: τ = %d, want 1", tau)
	}
	// Alice's part alone has no open triples (T2 = 0), the property the
	// lower bound exploits.
	alice := build(t, IndexGadget(x, -1))
	if t2 := exact.OpenTriples(alice); t2 != 0 {
		t.Fatalf("Alice graph T2 = %d, want 0", t2)
	}
	if tau := exact.Triangles(alice); tau != 1 {
		t.Fatalf("Alice graph τ = %d, want 1", tau)
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a := HolmeKim(randx.New(99), 500, 3, 0.5)
	b := HolmeKim(randx.New(99), 500, 3, 0.5)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestHolmeKimGolden pins HolmeKim's output against digests recorded
// from an earlier build, so that a change to how it keeps its adjacency
// or its per-vertex targets cannot move an edge unnoticed. The golden
// tests of the counters, the benchmarks' streams and the experiments all
// generate their graphs with it. Each digest is SHA-256 over the edges
// as little-endian u32 pairs.
func TestHolmeKimGolden(t *testing.T) {
	for _, tc := range []struct {
		seed    uint64
		n, mPer int
		pTriad  float64
		m       int
		want    string
	}{
		{101, 300, 3, 0.7, 894, "6b72fce7b6dc5dd068326134b69b6f901dfdfd4e2215c08e27fbfe56ab510d2b"},
		{7, 2000, 2, 0.9, 3997, "5e0acbf3e7939842f1c3a044dc0b87acdf38b23563605ef109ba39a83bc2d3f8"},
		{0xB01D, 20000, 8, 0.5, 159964, "55c3aab28b32e15d41bd45ab50bf4fb072049d97e154b2cb69eb92d5779f08b6"},
	} {
		t.Run(fmt.Sprintf("seed=%d/n=%d/mPer=%d/p=%v", tc.seed, tc.n, tc.mPer, tc.pTriad), func(t *testing.T) {
			edges := HolmeKim(randx.New(tc.seed), tc.n, tc.mPer, tc.pTriad)
			if len(edges) != tc.m {
				t.Fatalf("%d edges, want %d", len(edges), tc.m)
			}
			h := sha256.New()
			var b [8]byte
			for _, e := range edges {
				binary.LittleEndian.PutUint32(b[:4], e.U)
				binary.LittleEndian.PutUint32(b[4:], e.V)
				h.Write(b[:])
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
