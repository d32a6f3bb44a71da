package bench

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"streamtri/internal/core"
	"streamtri/internal/stream"
)

// Benchmarks for the ingestion pipeline: decode+count over the binary
// formats, slurp-then-count (the pre-pipeline architecture) against
// stream.Pipeline and the multi-file merges, and the decoders alone.
// Every cell here is gated: `make bench-core` records its Medges/s in
// BENCH_core.txt. `go test -bench` runs them in file order, nearly the
// order the baseline was recorded in; keep it, since the decode cells
// read about 10% lower when they follow the v2 merge cells. The
// single-source cells run the pipeline at the minimum ring depth, 2,
// which is all a steady-state consumer needs.

// BenchmarkSlurpThenCount is the bar for the pipeline cells: decoding
// and counting overlapped, with the recycle ring's allocation-free
// decode, must beat materializing the stream first.
func BenchmarkSlurpThenCount(b *testing.B) {
	data := EncodeBinaryEdges(CoreBenchStream(PipeBenchEdges))
	b.Run(fmt.Sprintf("r=%d/w=%d", PipeBenchR, 8*PipeBenchR), func(b *testing.B) {
		BenchPipeSlurp(b, data, PipeBenchR, 8*PipeBenchR)
	})
}

func BenchmarkPipelinedCount(b *testing.B) {
	data := EncodeBinaryEdges(CoreBenchStream(PipeBenchEdges))
	b.Run(fmt.Sprintf("r=%d/w=%d", PipeBenchR, 8*PipeBenchR), func(b *testing.B) {
		BenchPipePipelined(b, data, 8*PipeBenchR, 2, core.NewCounter(PipeBenchR, 1))
	})
}

// BenchmarkMultiPipelinedCount merges the stream's two halves. On a
// runner with few CPUs it measures the merge layer's overhead, not I/O
// parallelism: the decoder goroutines share the cores with the merger
// and the counter, so expect bulk decode to hold up across sources, not
// a files× speedup.
func BenchmarkMultiPipelinedCount(b *testing.B) {
	data := EncodeBinaryEdges(CoreBenchStream(PipeBenchEdges))
	half := (PipeBenchEdges / 2) * 8
	b.Run(fmt.Sprintf("files=2/r=%d/w=%d", PipeBenchR, 8*PipeBenchR), func(b *testing.B) {
		BenchMultiPipelined(b, [][]byte{data[:half], data[half:]}, 8*PipeBenchR, core.NewCounter(PipeBenchR, 1))
	})
}

// BenchmarkOrderedMergedCount merges the stream dealt round-robin into
// k timestamped shards, the worst case for the gallop (alternation on
// every edge). At k = 8 and 64 it prices the loser tree's replay cost
// growing with log k; the scaling claim is that ns/edge grows
// sublinearly in log k (one comparison per tree level, against a binary
// heap's two).
func BenchmarkOrderedMergedCount(b *testing.B) {
	for _, k := range []int{2, 8, 64} {
		shards := EncodeTimestampedShards(CoreBenchStream(PipeBenchEdges), k)
		b.Run(fmt.Sprintf("files=%d/r=%d/w=%d", k, PipeBenchR, 8*PipeBenchR), func(b *testing.B) {
			BenchOrderedPipelined(b, shards, 8*PipeBenchR, core.NewCounter(PipeBenchR, 1))
		})
	}
}

func BenchmarkWatermarkedCount(b *testing.B) {
	shards := EncodeTimestampedShards(CoreBenchStream(PipeBenchEdges), 2)
	b.Run(fmt.Sprintf("files=2/r=%d/w=%d", PipeBenchR, 8*PipeBenchR), func(b *testing.B) {
		BenchWatermarkedPipelined(b, shards, 8*PipeBenchR, core.NewCounter(PipeBenchR, 1))
	})
}

// BenchmarkTextDecodePerEdge and BenchmarkTextDecodeBulk price the text
// decoder alone, into a discard sink: the counting cost is the same on
// both paths and the binary cells track it. Acceptance for the bulk
// window scanner: at least 1.3× the edges/s of the per-edge Next path.
func BenchmarkTextDecodePerEdge(b *testing.B) {
	data := EncodeTextEdges(CoreBenchStream(PipeBenchEdges))
	b.Run(fmt.Sprintf("w=%d", 8*PipeBenchR), func(b *testing.B) {
		BenchTextPipelined(b, data, 8*PipeBenchR, PipeBenchEdges, discardSink{}, false)
	})
}

func BenchmarkTextDecodeBulk(b *testing.B) {
	data := EncodeTextEdges(CoreBenchStream(PipeBenchEdges))
	b.Run(fmt.Sprintf("w=%d", 8*PipeBenchR), func(b *testing.B) {
		BenchTextPipelined(b, data, 8*PipeBenchR, PipeBenchEdges, discardSink{}, true)
	})
}

// BenchmarkTsTextDecodePerEdge and BenchmarkTsTextDecodeBulk are the
// text pair on temporal lines. Acceptance for the fused three-column
// scanner: at least 1.8× the per-edge cell, and close to the plain bulk
// cell (the gap being the third column's bytes).
func BenchmarkTsTextDecodePerEdge(b *testing.B) {
	data := EncodeTimestampedTextEdges(CoreBenchStream(PipeBenchEdges))
	b.Run(fmt.Sprintf("w=%d", 8*PipeBenchR), func(b *testing.B) {
		BenchTsTextPipelined(b, data, 8*PipeBenchR, PipeBenchEdges, discardSink{}, false)
	})
}

func BenchmarkTsTextDecodeBulk(b *testing.B) {
	data := EncodeTimestampedTextEdges(CoreBenchStream(PipeBenchEdges))
	b.Run(fmt.Sprintf("w=%d", 8*PipeBenchR), func(b *testing.B) {
		BenchTsTextPipelined(b, data, 8*PipeBenchR, PipeBenchEdges, discardSink{}, true)
	})
}

// BenchmarkTsBinaryDecodeBulk and BenchmarkBlockDecodeBulk price the
// binary formats' bulk decoders alone, timestamps stripped, into a
// discard sink: the v1 16-byte-record Peek/Discard scan, and the v2
// path, one CRC pass and bounds check per block and then batch fills
// straight out of the validated view.
func BenchmarkTsBinaryDecodeBulk(b *testing.B) {
	data := EncodeTimestampedShards(CoreBenchStream(PipeBenchEdges), 1)[0]
	b.Run(fmt.Sprintf("w=%d", 8*PipeBenchR), func(b *testing.B) {
		benchSourcePipelined(b, 8*PipeBenchR, PipeBenchEdges, discardSink{}, func() stream.Source {
			return stream.StripTimestamps(stream.NewTimestampedBinarySource(bytes.NewReader(data)))
		})
	})
}

func BenchmarkBlockDecodeBulk(b *testing.B) {
	data := EncodeBlockShards(CoreBenchStream(PipeBenchEdges), 1)[0]
	b.Run(fmt.Sprintf("w=%d", 8*PipeBenchR), func(b *testing.B) {
		benchSourcePipelined(b, 8*PipeBenchR, PipeBenchEdges, discardSink{}, func() stream.Source {
			return stream.StripTimestamps(stream.NewBlockBinarySource(bytes.NewReader(data)))
		})
	})
}

// BenchmarkOrderedMergedCountV2 reruns BenchmarkOrderedMergedCount on v2
// shards, whose zero-copy block views skip the decode and re-encode the
// v1 shards pay to reach the merge. Acceptance: the k = 64 cell within
// 1.25× the ns/edge of the k = 2 cell.
func BenchmarkOrderedMergedCountV2(b *testing.B) {
	for _, k := range []int{2, 8, 64} {
		shards := EncodeBlockShards(CoreBenchStream(PipeBenchEdges), k)
		b.Run(fmt.Sprintf("files=%d/r=%d/w=%d", k, PipeBenchR, 8*PipeBenchR), func(b *testing.B) {
			BenchOrderedBlockPipelined(b, shards, PipeBenchEdges, 8*PipeBenchR, core.NewCounter(PipeBenchR, 1))
		})
	}
}

// TestTextBenchEquivalence keeps the text cells honest: per-edge and
// bulk decoding of the same bytes with the same batch size and seed must
// yield bit-identical estimates.
func TestTextBenchEquivalence(t *testing.T) {
	edges := CoreBenchStream(1 << 12)
	data := EncodeTextEdges(edges)
	const r, w = 256, 256

	drain := func(bulk bool) *core.Counter {
		c := core.NewCounter(r, 1)
		var src stream.Source = stream.NewTextSource(bytes.NewReader(data))
		if !bulk {
			src = nextOnlySource{src}
		}
		p, err := stream.NewPipeline(context.Background(), src, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		n, err := p.Drain(c)
		if err != nil {
			t.Fatal(err)
		}
		if n != uint64(len(edges)) {
			t.Fatalf("drained %d of %d edges", n, len(edges))
		}
		return c
	}
	perEdge, bulk := drain(false), drain(true)
	if got, want := bulk.EstimateTriangles(), perEdge.EstimateTriangles(); got != want {
		t.Fatalf("bulk text estimate %v != per-edge %v (decoders must be bit-identical)", got, want)
	}
}

// TestMultiPipelineBenchPlumbing checks the 2-file cell absorbs every
// edge of the split stream.
func TestMultiPipelineBenchPlumbing(t *testing.T) {
	edges := CoreBenchStream(1 << 12)
	data := EncodeBinaryEdges(edges)
	half := (len(edges) / 2) * 8
	c := core.NewCounter(64, 1)
	srcs := []stream.Source{
		stream.NewBinarySource(bytes.NewReader(data[:half])),
		stream.NewBinarySource(bytes.NewReader(data[half:])),
	}
	p, err := stream.NewMergedPipeline(context.Background(), srcs, 512)
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.Drain(c)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(edges)) || c.Edges() != uint64(len(edges)) {
		t.Fatalf("merged pipeline absorbed %d edges (counter %d), want %d", n, c.Edges(), len(edges))
	}
}

// TestOrderedBenchEquivalence keeps the ordered cells honest: the
// timestamp merge of the round-robin shards must reproduce the original
// stream exactly at every benchmarked k, so its counter state is
// bit-identical to counting the unsharded slice — the cells pay for the
// merge, not for different work.
func TestOrderedBenchEquivalence(t *testing.T) {
	edges := CoreBenchStream(1 << 12)
	const r, w = 256, 256

	ref := core.NewCounter(r, 1)
	streamInBatches(ref, edges, w)

	for _, k := range []int{2, 8, 64} {
		shards := EncodeTimestampedShards(edges, k)
		merged := core.NewCounter(r, 1)
		srcs := make([]stream.TimestampedSource, len(shards))
		for i, d := range shards {
			srcs[i] = stream.NewTimestampedBinarySource(bytes.NewReader(d))
		}
		p, err := stream.NewOrderedMultiPipeline(context.Background(), srcs, w)
		if err != nil {
			t.Fatal(err)
		}
		n, err := p.Drain(merged)
		if err != nil {
			t.Fatal(err)
		}
		if n != uint64(len(edges)) {
			t.Fatalf("k=%d: merged %d of %d edges", k, n, len(edges))
		}
		if got, want := merged.EstimateTriangles(), ref.EstimateTriangles(); got != want {
			t.Fatalf("k=%d: ordered-merge estimate %v != unsharded %v (merge must reassemble the stream)", k, got, want)
		}
	}
}

// TestOrderedBlockBenchEquivalence keeps the v2 cells honest: the merge
// of the v2 round-robin shards must reproduce the original stream
// exactly at every benchmarked k, bit-identical to counting the
// unsharded slice — so the v2 cells measure the same work as the v1
// cells and differ only in how the shards reach the merge.
func TestOrderedBlockBenchEquivalence(t *testing.T) {
	edges := CoreBenchStream(1 << 12)
	const r, w = 256, 256

	ref := core.NewCounter(r, 1)
	streamInBatches(ref, edges, w)

	for _, k := range []int{2, 8, 64} {
		shards := EncodeBlockShards(edges, k)
		merged := core.NewCounter(r, 1)
		srcs := make([]stream.TimestampedSource, len(shards))
		for i, d := range shards {
			srcs[i] = stream.NewBlockBinarySource(bytes.NewReader(d))
		}
		p, err := stream.NewOrderedMultiPipeline(context.Background(), srcs, w)
		if err != nil {
			t.Fatal(err)
		}
		n, err := p.Drain(merged)
		if err != nil {
			t.Fatal(err)
		}
		if n != uint64(len(edges)) {
			t.Fatalf("k=%d: merged %d of %d edges", k, n, len(edges))
		}
		if got, want := merged.EstimateTriangles(), ref.EstimateTriangles(); got != want {
			t.Fatalf("k=%d: v2 ordered-merge estimate %v != unsharded %v (block merge must reassemble the stream)", k, got, want)
		}
	}
}

// TestTsTextBenchEquivalence keeps the temporal text cells honest:
// per-edge and bulk decoding of the same temporal bytes, stripped to
// plain edges, must yield bit-identical estimates — and match the plain
// decoder over the same graph, since the timestamp column only rides
// along.
func TestTsTextBenchEquivalence(t *testing.T) {
	edges := CoreBenchStream(1 << 12)
	data := EncodeTimestampedTextEdges(edges)
	const r, w = 256, 256

	drain := func(bulk bool) *core.Counter {
		c := core.NewCounter(r, 1)
		src := stream.StripTimestamps(stream.NewTimestampedTextSource(bytes.NewReader(data)))
		if !bulk {
			src = nextOnlySource{src}
		}
		p, err := stream.NewPipeline(context.Background(), src, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		n, err := p.Drain(c)
		if err != nil {
			t.Fatal(err)
		}
		if n != uint64(len(edges)) {
			t.Fatalf("drained %d of %d edges", n, len(edges))
		}
		return c
	}
	ref := core.NewCounter(r, 1)
	streamInBatches(ref, edges, w)
	perEdge, bulk := drain(false), drain(true)
	if got, want := bulk.EstimateTriangles(), perEdge.EstimateTriangles(); got != want {
		t.Fatalf("bulk temporal estimate %v != per-edge %v (decoders must be bit-identical)", got, want)
	}
	if got, want := bulk.EstimateTriangles(), ref.EstimateTriangles(); got != want {
		t.Fatalf("temporal-text estimate %v != plain slice %v (timestamps must only ride along)", got, want)
	}
}

// TestPipelineBenchEquivalence keeps the two ingestion paths honest:
// identical bytes, identical batch boundaries, identical counter seed
// must yield bit-identical estimates — the benchmark compares equal
// work.
func TestPipelineBenchEquivalence(t *testing.T) {
	edges := CoreBenchStream(1 << 12)
	data := EncodeBinaryEdges(edges)
	const r, w = 256, 256

	slurped, err := stream.ReadBinaryEdges(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewCounter(r, 1)
	streamInBatches(a, slurped, w)

	bCnt := core.NewCounter(r, 1)
	p, err := stream.NewPipeline(context.Background(), stream.NewBinarySource(bytes.NewReader(data)), w, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.Drain(bCnt)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(edges)) {
		t.Fatalf("pipeline drained %d of %d edges", n, len(edges))
	}
	if got, want := bCnt.EstimateTriangles(), a.EstimateTriangles(); got != want {
		t.Fatalf("pipelined estimate %v != slurped %v (paths must be equivalent)", got, want)
	}
	if bCnt.Edges() != a.Edges() {
		t.Fatalf("edge counts diverge: %d != %d", bCnt.Edges(), a.Edges())
	}
}
