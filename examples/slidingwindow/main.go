// Sliding-window monitoring (Section 5.2 of the paper): track the
// triangle count of the most recent w edges of a live stream — e.g. spam
// detection on a social firehose, where only recent interactions matter.
//
// The stream alternates between "quiet" periods (tree-like edges, no
// triangles) and "bursts" of tightly clustered activity; the windowed
// estimate rises during bursts and decays back as burst edges expire.
package main

import (
	"fmt"

	"streamtri"
	"streamtri/internal/gen"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

func main() {
	const window = 2_000
	wc := streamtri.NewSlidingWindowCounter(3_000, window, streamtri.WithSeed(5))

	var full []streamtri.Edge
	base := streamtri.NodeID(0)
	for phase := 0; phase < 6; phase++ {
		if phase%2 == 0 {
			// Quiet: a path on fresh vertices (zero triangles).
			for _, e := range gen.Path(2_000) {
				full = append(full, streamtri.Edge{U: e.U + base, V: e.V + base})
			}
			base += 2_001
		} else {
			// Burst: triangle-rich gadgets on fresh vertices.
			burst := gen.Syn3Reg(60, 30) // τ = 300
			for _, e := range stream.Shuffle(burst, randx.New(uint64(phase))) {
				full = append(full, streamtri.Edge{U: e.U + base, V: e.V + base})
			}
			base += 1_000
		}
	}

	fmt.Printf("window = last %d edges; stream = %d edges\n", window, len(full))
	fmt.Printf("%10s %18s %16s\n", "edge#", "window triangles≈", "mean chain len")
	for i, e := range full {
		wc.Add(e)
		if (i+1)%1_500 == 0 {
			fmt.Printf("%10d %18.1f %16.2f\n", i+1, wc.EstimateTriangles(), wc.MeanChainLength())
		}
	}
	fmt.Println("\nestimates spike during bursts and fall back to ~0 as they expire;")
	fmt.Println("chain length stays ≈ e−1 ≈ 1.72 whatever w is (chain sampling).")
}
