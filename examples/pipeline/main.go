// Pipelined ingestion: count triangles in an edge file WITHOUT ever
// holding the graph in memory. The decode pipeline reads fixed-size
// batches on its own goroutine (backpressured by a small recycle ring)
// while the counter absorbs them — so I/O+decode time overlaps
// processing, the way the paper's Table 3 prices them separately, and
// the resident set stays a few batch buffers regardless of file size.
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"streamtri"
	"streamtri/internal/gen"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

func main() {
	// Stage a binary edge file on disk, as a crawler or exporter would
	// (cmd/graphgen -format binary does the same).
	edges := stream.Shuffle(gen.HolmeKim(randx.New(21), 30_000, 3, 0.6), randx.New(22))
	path := filepath.Join(os.TempDir(), "streamtri-pipeline-example.bin")
	f, err := os.Create(path)
	check(err)
	defer os.Remove(path)
	check(stream.WriteBinaryEdges(f, edges))
	check(f.Close())

	// Stream it back through the pipeline: the counter only ever sees
	// w-sized batches, never the whole file.
	in, err := os.Open(path)
	check(err)
	defer in.Close()

	tc := streamtri.NewTriangleCounter(1<<14,
		streamtri.WithSeed(5), streamtri.WithBatchSize(1<<14))

	start := time.Now()
	st, err := tc.CountStream(context.Background(), streamtri.NewBinaryEdgeSource(in))
	check(err)
	wall := time.Since(start).Seconds()

	fmt.Printf("streamed %d edges in %d batches\n", st.Edges, st.Batches)
	fmt.Printf("io+decode %.3fs overlapped inside %.3fs wall\n", st.DecodeSeconds, wall)
	fmt.Printf("≈%.0f triangles, transitivity ≈%.3f\n",
		tc.EstimateTriangles(), tc.EstimateTransitivity())

	// The same pipeline drives text streams (streamtri.NewEdgeListSource)
	// and, with -samples, the uniform triangle sampler; see cmd/trict.
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipeline example:", err)
		os.Exit(1)
	}
}
