// Multi-source parallel ingestion: count triangles across SEVERAL edge
// files at once, one decoder goroutine per file — the ingest-partitioning
// pattern large survey systems use to scale I/O with hardware, applied to
// the streaming triangle counter. A deterministic merge takes the files
// in blocks, round-robin, so the run reproduces bit for bit; the
// adjacency-stream model admits any arrival order (the paper allows
// adversarial order), so the block order leaves the estimate's
// distribution unchanged while decoding runs as wide as the inputs allow.
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
	// Stage a graph sharded across three binary files, as a partitioned
	// exporter or crawler would produce it.
	edges := stream.Shuffle(gen.HolmeKim(randx.New(31), 30_000, 3, 0.6), randx.New(32))
	third := len(edges) / 3
	parts := [][]streamtri.Edge{edges[:third], edges[third : 2*third], edges[2*third:]}

	paths := make([]string, len(parts))
	for i, part := range parts {
		paths[i] = filepath.Join(os.TempDir(), fmt.Sprintf("streamtri-multifile-%d.bin", i))
		f, err := os.Create(paths[i])
		check(err)
		check(stream.WriteBinaryEdges(f, part))
		check(f.Close())
	}
	defer func() {
		for _, p := range paths {
			os.Remove(p)
		}
	}()

	// Open every shard and hand all of them to CountStreams: each gets
	// its own decoder goroutine; the counter sees one merged batch
	// stream and never the whole graph.
	srcs := make([]streamtri.Source, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		check(err)
		defer f.Close()
		srcs[i] = streamtri.NewBinaryEdgeSource(f)
	}

	tc := streamtri.NewTriangleCounter(1<<14,
		streamtri.WithSeed(5), streamtri.WithBatchSize(1<<14))

	start := time.Now()
	st, err := tc.CountStreams(context.Background(), srcs...)
	check(err)
	wall := time.Since(start).Seconds()

	fmt.Printf("streamed %d edges from %d files in %d batches\n", st.Edges, len(paths), st.Batches)
	fmt.Printf("io+decode %.3fs total across %d parallel decoders, inside %.3fs wall\n",
		st.DecodeSeconds, len(paths), wall)
	fmt.Printf("≈%.0f triangles, transitivity ≈%.3f\n",
		tc.EstimateTriangles(), tc.EstimateTransitivity())

	// Text shards (streamtri.NewEdgeListSource) merge the same way, and
	// formats can mix; see cmd/trict's repeatable -i flag.
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "multifile example:", err)
		os.Exit(1)
	}
}
