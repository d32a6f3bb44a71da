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

// TestBulkLoadFilterCounts pins the quality of the bulk engine's key
// filter at bulk-load's shape: over BulkLoadStream's batches 16–31, the
// candidates scan looks up that are no key (candidates less hits) stay
// under 0.05 per edge. A one-bit filter of the same 32 bits per
// estimator let 0.105 per edge through. It logs the counts per edge and
// the index rebuilds over all 32 batches.
func TestBulkLoadFilterCounts(t *testing.T) {
	edges := BulkLoadStream()
	c := core.NewCounter(bulkLoadR, 1)
	var warm core.BatchStats
	for k := 0; (k+1)*bulkLoadW <= len(edges); k++ {
		if k == bulkLoadWarmup {
			warm = c.BatchStats()
		}
		c.AddBatch(edges[k*bulkLoadW : (k+1)*bulkLoadW])
	}
	s := c.BatchStats()
	m := float64(bulkLoadTimed * bulkLoadW)
	cands, hits := float64(s.Candidates-warm.Candidates)/m, float64(s.Hits-warm.Hits)/m
	t.Logf("batches %d–%d: %.4f candidates, %.4f hits, %.4f false candidates per edge; %d rebuilds in %d batches",
		bulkLoadWarmup, bulkLoadWarmup+bulkLoadTimed-1, cands, hits, cands-hits, s.Rebuilds, bulkLoadWarmup+bulkLoadTimed)
	if cands-hits >= 0.05 {
		t.Errorf("%.4f false candidates per edge, want under 0.05", cands-hits)
	}
}
