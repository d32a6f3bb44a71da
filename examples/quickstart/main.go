// Quickstart: estimate the triangle count and transitivity coefficient of
// an edge stream with the public streamtri API, and compare against the
// exact offline count.
package main

import (
	"fmt"
	"os"

	"streamtri"
	"streamtri/internal/gen"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

func main() {
	// A synthetic social-style graph: 20k vertices, ~60k edges, power-law
	// degrees, lots of triangles — arriving in random order.
	edges := stream.Shuffle(gen.HolmeKim(randx.New(7), 20_000, 3, 0.6), randx.New(8))

	// One counter, 64k estimators. Estimators are the accuracy knob:
	// more estimators, more accuracy, more memory (40 B of state each,
	// ≈84 B with the bulk path's endpoint index).
	tc := streamtri.NewTriangleCounter(1<<16, streamtri.WithSeed(42))
	for _, e := range edges {
		tc.Add(e) // amortized O(1): edges are batched internally
	}

	fmt.Printf("stream:        %d edges\n", tc.Edges())
	fmt.Printf("triangles ≈    %.0f\n", tc.EstimateTriangles())
	fmt.Printf("wedges ≈       %.0f\n", tc.EstimateWedges())
	fmt.Printf("transitivity ≈ %.4f\n", tc.EstimateTransitivity())

	// Ground truth (offline, O(n+m) memory — only for the comparison).
	tau, err := streamtri.ExactTriangles(edges)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
	kappa, _ := streamtri.ExactTransitivity(edges)
	fmt.Printf("exact:         τ=%d, κ=%.4f\n", tau, kappa)
}
