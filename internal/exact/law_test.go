package exact

import (
	"math"
	"testing"

	"streamtri/internal/graph"
	"streamtri/internal/randx"
)

// TestNeighborhoodSamplingLaw checks the enumerated law against the
// paper's closed forms on shuffled complete graphs: the probabilities
// sum to 1, the estimate c·m has mean ζ over the law (Lemma 3.10) and,
// on the outcomes that hold a triangle, mean τ (Lemma 3.2), and every
// triangle is held with probability 1/(m·C(t)) (Lemma 3.1).
func TestNeighborhoodSamplingLaw(t *testing.T) {
	for n := 3; n <= 6; n++ {
		stream := completeGraph(n)
		rng := randx.New(uint64(n))
		rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		law := NeighborhoodSamplingLaw(stream)
		g := graph.MustFromEdges(stream)
		ss := ComputeStreamStats(stream)
		m := float64(len(stream))
		var sum, wedges, tri float64
		held := map[graph.Triangle]float64{}
		for _, o := range law.Outcomes {
			sum += o.P
			wedges += o.P * float64(o.C) * m
			if o.Closed {
				tri += o.P * float64(o.C) * m
				r1, r2 := stream[o.R1-1], stream[o.R2-1]
				s, _ := r1.SharedVertex(r2)
				held[graph.MakeTriangle(s, r1.Other(s), r2.Other(s))] += o.P
			}
			if i, ok := law.Find(o.R1, o.R2); !ok || law.Outcomes[i] != o {
				t.Fatalf("K%d: Find(%d, %d) does not return its outcome", n, o.R1, o.R2)
			}
		}
		near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
		if !near(sum, 1) || !near(wedges, float64(Wedges(g))) || !near(tri, float64(Triangles(g))) {
			t.Fatalf("K%d: ΣP = %v, E[c·m] = %v (ζ = %d), E[τ̃] = %v (τ = %d)", n, sum, wedges, Wedges(g), tri, Triangles(g))
		}
		for tr, first := range ss.FirstEdge {
			if want := 1 / (m * float64(ss.C[first])); !near(held[tr], want) {
				t.Fatalf("K%d: triangle %v held with probability %v, want %v", n, tr, held[tr], want)
			}
		}
		if _, ok := law.Find(1, 1); ok {
			t.Fatalf("K%d: r2 at r1's own position has an outcome", n)
		}
	}
}
