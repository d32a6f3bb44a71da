package bench

import (
	"fmt"
	"testing"

	"streamtri/internal/core"
)

// Benchmarks for the map-free AddBatch hot path, across w ∈ {r/4, r, 4r}
// and at bulk-load's shape. `make bench-core` records the AddBatchFlat
// cells in BENCH_core.txt, the baseline of `make bench-check`.

const (
	coreBenchR     = 4096
	coreBenchEdges = 1 << 17
)

func BenchmarkAddBatchFlat(b *testing.B) {
	edges := CoreBenchStream(coreBenchEdges)
	for _, w := range CoreBatchWidths(coreBenchR) {
		b.Run(fmt.Sprintf("r=%d/w=%d", coreBenchR, w), func(b *testing.B) {
			BenchCoreAddBatch(b, edges, coreBenchR, w)
		})
	}
}

// BenchmarkBulkLoadAddBatch prices Counter.AddBatch per batch at
// perfbench's bulk-load shape (BenchCoreBulkLoad).
func BenchmarkBulkLoadAddBatch(b *testing.B) {
	edges := BulkLoadStream()
	b.Run(fmt.Sprintf("r=%d/w=%d", bulkLoadR, bulkLoadW), func(b *testing.B) {
		BenchCoreBulkLoad(b, edges)
	})
}

// TestCoreBenchPlumbing keeps the benchmark helpers honest under plain
// `go test`: the shared stream is deterministic and the counter absorbs
// it fully.
func TestCoreBenchPlumbing(t *testing.T) {
	edges := CoreBenchStream(1 << 10)
	if len(edges) != 1<<10 {
		t.Fatalf("stream has %d edges, want %d", len(edges), 1<<10)
	}
	again := CoreBenchStream(1 << 10)
	for i := range edges {
		if edges[i] != again[i] {
			t.Fatal("CoreBenchStream is not deterministic")
		}
	}
	if got := CoreBatchWidths(4096); len(got) != 3 || got[0] != 1024 || got[1] != 4096 || got[2] != 16384 {
		t.Fatalf("CoreBatchWidths(4096) = %v", got)
	}
	c := core.NewCounter(32, 1)
	streamInBatches(c, edges, 100)
	if c.Edges() != uint64(len(edges)) {
		t.Fatalf("counter absorbed %d of %d edges", c.Edges(), len(edges))
	}
}

// TestServeBenchPlumbing spins the serving cell's harness once at toy
// scale: the pipeline pass under polling readers must still absorb the
// whole stream (pipeOnePass fatals on a short drain), and the readers
// must observe monotone snapshots (the harness errors otherwise).
func TestServeBenchPlumbing(t *testing.T) {
	data := EncodeBinaryEdges(CoreBenchStream(1 << 12))
	res := testing.Benchmark(func(b *testing.B) {
		BenchServeIngestUnderReaders(b, data, 256, 2, 2, core.NewCounter(64, 1))
	})
	if res.N < 1 {
		t.Fatalf("serving benchmark did not run: %+v", res)
	}
}
