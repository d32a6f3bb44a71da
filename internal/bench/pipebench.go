package bench

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"

	"streamtri/internal/core"
	"streamtri/internal/graph"
	"streamtri/internal/stream"
)

// End-to-end ingestion benchmarks: decode + count, the full path a graph
// takes from bytes on disk to estimator state. The slurp cells replay the
// pre-pipeline architecture (read the whole binary stream into a slice,
// then count it in batches); the pipeline cells stream the same bytes
// through stream.Pipeline, which bulk-decodes fixed-size batches into a
// recycle ring on a dedicated goroutine while the counter absorbs them.
// The measured gap is the cost of serializing ingest and analytics —
// what the paper's Table 3 prices as separate I/O and processing time.

// PipeBenchR is the estimator count of the ingestion cells. It is
// deliberately the throughput regime — modest r with the library-default
// w = 8r — where I/O+decode is a non-negligible share of total time, the
// regime the paper's Table 3 prices. (At very large r the counting work
// swamps ingestion and both architectures converge.)
const PipeBenchR = 1024

// PipeBenchEdges is the ingestion-cell stream length — deliberately
// larger than the core cells' stream so the slurp baseline pays its
// real materialization cost (slice doubling + GC scale with m, the
// pipeline's footprint does not).
const PipeBenchEdges = 1 << 20

// EncodeBinaryEdges renders edges in the 8-bytes-per-edge binary format.
func EncodeBinaryEdges(edges []graph.Edge) []byte {
	var buf bytes.Buffer
	buf.Grow(8 * len(edges))
	if err := stream.WriteBinaryEdges(&buf, edges); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// BenchPipeSlurp measures slurp-then-count: decode the whole stream into
// memory (ReadBinaryEdges, the old cmd/trict ingestion), then stream the
// slice through the counter in w-edge batches.
func BenchPipeSlurp(b *testing.B, data []byte, r, w int) {
	c := core.NewCounter(r, 1)
	warmSlurp(c, data, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edges, err := stream.ReadBinaryEdges(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		streamInBatches(c, edges, w)
	}
	b.StopTimer()
	reportEdgesPerSec(b, len(data)/8)
}

func warmSlurp(c *core.Counter, data []byte, w int) {
	edges, err := stream.ReadBinaryEdges(bytes.NewReader(data))
	if err != nil {
		panic(err)
	}
	streamInBatches(c, edges, w)
}

// BenchPipePipelined measures the pipelined ingestion over the same
// bytes: bulk batch decoding on the decoder goroutine, double-buffered
// AddBatchAsync handoff into the sink, zero steady-state allocation.
// sink is a *core.Counter or *core.ShardedCounter.
func BenchPipePipelined(b *testing.B, data []byte, w, depth int, sink stream.AsyncSink) {
	pipeOnePass(b, data, w, depth, sink) // warm scratch tables untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipeOnePass(b, data, w, depth, sink)
	}
	b.StopTimer()
	reportEdgesPerSec(b, len(data)/8)
}

func pipeOnePass(b *testing.B, data []byte, w, depth int, sink stream.AsyncSink) {
	p, err := stream.NewPipeline(context.Background(), stream.NewBinarySource(bytes.NewReader(data)), w, depth)
	if err != nil {
		b.Fatal(err)
	}
	n, err := p.Drain(sink)
	if err != nil {
		b.Fatal(err)
	}
	if n != uint64(len(data)/8) {
		b.Fatalf("drained %d of %d edges", n, len(data)/8)
	}
}

func reportEdgesPerSec(b *testing.B, edges int) {
	b.ReportMetric(float64(edges)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medges/s")
}

// medianBenchmark runs f several times and keeps the median-ns/op
// result: single testing.Benchmark runs jitter several percent on busy
// machines, and the committed baseline should record the typical cell,
// not a lucky or unlucky draw.
func medianBenchmark(runs int, f func(b *testing.B)) testing.BenchmarkResult {
	results := make([]testing.BenchmarkResult, runs)
	for i := range results {
		results[i] = testing.Benchmark(f)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].NsPerOp() < results[j].NsPerOp() })
	return results[runs/2]
}

// benchRow converts one measured per-pass result into a report cell.
func benchRow(name, impl string, m, r, w, p int, res testing.BenchmarkResult) CoreBenchRow {
	batches := (m + w - 1) / w
	perPassNs := float64(res.NsPerOp())
	return CoreBenchRow{
		Name:        name,
		Impl:        impl,
		R:           r,
		W:           w,
		Shards:      p,
		EdgesPerSec: float64(m) / (perPassNs / 1e9),
		NsPerEdge:   perPassNs / float64(m),
		BytesPerOp:  res.AllocedBytesPerOp() / int64(batches),
		AllocsPerOp: res.AllocsPerOp() / int64(batches),
	}
}

// RunPipelineBenchCells measures the binary ingestion cells appended to
// the BENCH_core.json report: slurp vs pipelined on the flat counter,
// the pipelined sharded counter, the 2-file first-come merged pipeline
// over the same edges split into halves, and the 2-file timestamp-ordered
// merge over the same edges dealt round-robin. Acceptance for the pipelined design is
// edges/sec(pipeline) / edges/sec(slurp) — the decode/count overlap plus
// the recycle ring's zero-allocation decode must beat materializing the
// stream. Each cell is the median of three measurement runs; the
// single-source pipeline cells use the minimum ring depth (2), which is
// all a steady-state consumer needs.
//
// On a single-CPU runner (this repo's bench environment) the multi-file
// cell measures the merge layer's overhead, not I/O parallelism: decoder
// goroutines interleave on one core, so the win to expect from
// MultiPipeline there is bulk decode + shared-ring recycling holding up
// across sources, not a files× speedup.
func RunPipelineBenchCells(r, w, shards int) []CoreBenchRow {
	data := EncodeBinaryEdges(CoreBenchStream(PipeBenchEdges))
	tsShards := EncodeTimestampedShards(CoreBenchStream(PipeBenchEdges), 2)
	m := PipeBenchEdges
	half := (m / 2) * 8 // byte offset splitting the stream into two files
	const runs = 3
	rows := []CoreBenchRow{
		benchRow(fmt.Sprintf("SlurpThenCount/r=%d/w=%d", r, w), "slurp", m, r, w, 0,
			medianBenchmark(runs, func(b *testing.B) { BenchPipeSlurp(b, data, r, w) })),
		benchRow(fmt.Sprintf("PipelinedCount/r=%d/w=%d", r, w), "pipeline", m, r, w, 0,
			medianBenchmark(runs, func(b *testing.B) {
				BenchPipePipelined(b, data, w, 2, core.NewCounter(r, 1))
			})),
		benchRow(fmt.Sprintf("PipelinedShardedCount/r=%d/w=%d/p=%d", r, w, shards), "pipeline-sharded", m, r, w, shards,
			medianBenchmark(runs, func(b *testing.B) {
				sc := core.NewShardedCounter(r, shards, 1)
				defer sc.Close()
				BenchPipePipelined(b, data, w, 2, sc)
			})),
		benchRow(fmt.Sprintf("MultiPipelinedCount/files=2/r=%d/w=%d", r, w), "multi-pipeline", m, r, w, 0,
			medianBenchmark(runs, func(b *testing.B) {
				BenchMultiPipelined(b, [][]byte{data[:half], data[half:]}, w, core.NewCounter(r, 1))
			})),
		benchRow(fmt.Sprintf("OrderedMergedCount/files=2/r=%d/w=%d", r, w), "ordered-pipeline", m, r, w, 0,
			medianBenchmark(runs, func(b *testing.B) {
				BenchOrderedPipelined(b, tsShards, w, core.NewCounter(r, 1))
			})),
		benchRow(fmt.Sprintf("WatermarkedCount/files=2/r=%d/w=%d", r, w), "watermark-pipeline", m, r, w, 0,
			medianBenchmark(runs, func(b *testing.B) {
				BenchWatermarkedPipelined(b, tsShards, w, core.NewCounter(r, 1))
			})),
	}
	// Merge-scaling cells: the same stream dealt round-robin across 8 and
	// 64 shards — still the worst case for the gallop (alternation on
	// every edge), so what these cells price is the loser tree's replay
	// cost growing with log k. The scaling claim: ns/edge grows
	// sublinearly in log k (one comparison per tree level, against a
	// binary heap's two).
	for _, k := range []int{8, 64} {
		shards := EncodeTimestampedShards(CoreBenchStream(PipeBenchEdges), k)
		rows = append(rows,
			benchRow(fmt.Sprintf("OrderedMergedCount/files=%d/r=%d/w=%d", k, r, w), "ordered-pipeline", m, r, w, 0,
				medianBenchmark(runs, func(b *testing.B) {
					BenchOrderedPipelined(b, shards, w, core.NewCounter(r, 1))
				})))
	}
	return rows
}

// EncodeTimestampedShards stamps edges with their stream index as the
// timestamp and deals them round-robin into k timestamped binary shards
// — the worst case for the k-way merge, which must alternate between
// sources on every single edge (contiguous halves would degenerate to
// concatenation). The merge of these shards reproduces the original
// stream exactly, so the ordered cell counts the same work as the
// first-come cell.
func EncodeTimestampedShards(edges []graph.Edge, k int) [][]byte {
	shards := make([][]stream.TimestampedEdge, k)
	for i, e := range edges {
		shards[i%k] = append(shards[i%k], stream.TimestampedEdge{E: e, TS: int64(i)})
	}
	out := make([][]byte, k)
	for i, shard := range shards {
		var buf bytes.Buffer
		buf.Grow(16*len(shard) + 8)
		if err := stream.WriteTimestampedBinaryEdges(&buf, shard); err != nil {
			panic(err) // bytes.Buffer cannot fail
		}
		out[i] = buf.Bytes()
	}
	return out
}

// BenchOrderedPipelined measures timestamp-ordered multi-file ingestion:
// one bulk timestamped decoder per v1 shard filling pooled blocks, the
// k-way loser-tree merge re-sequencing their records, drained into
// sink. The
// acceptance bar at k=2 is staying within 1.15x of the first-come
// MultiPipelinedCount cell (the binary-heap merge sat at 1.23x):
// determinism is the point, the tournament replays and the extra buffer
// hop are the price, and that price must stay small.
func BenchOrderedPipelined(b *testing.B, shards [][]byte, w int, sink stream.AsyncSink) {
	m := 0
	for _, d := range shards {
		m += (len(d) - 8) / 16
	}
	onePass := func() {
		srcs := make([]stream.TimestampedSource, len(shards))
		for i, d := range shards {
			srcs[i] = stream.NewTimestampedBinarySource(bytes.NewReader(d))
		}
		p, err := stream.NewOrderedMultiPipeline(context.Background(), srcs, w)
		if err != nil {
			b.Fatal(err)
		}
		n, err := p.Drain(sink)
		if err != nil {
			b.Fatal(err)
		}
		if n != uint64(m) {
			b.Fatalf("drained %d of %d edges", n, m)
		}
	}
	onePass() // warm scratch tables untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		onePass()
	}
	b.StopTimer()
	reportEdgesPerSec(b, m)
}

// BenchWatermarkedPipelined is BenchOrderedPipelined with each shard
// wrapped in the lateness-0 watermark stage — the robustness
// configuration a cautious caller runs on nominally sorted input to
// filter disorder instead of trusting it. The input IS sorted, so the
// cell prices the stage's pure overhead on the hot path (the heap-free
// fillDirect scan); the acceptance bar is staying within 1.15x of the
// unwrapped OrderedMergedCount/files=2 cell.
func BenchWatermarkedPipelined(b *testing.B, shards [][]byte, w int, sink stream.AsyncSink) {
	m := 0
	for _, d := range shards {
		m += (len(d) - 8) / 16
	}
	onePass := func() {
		srcs := make([]stream.TimestampedSource, len(shards))
		for i, d := range shards {
			srcs[i] = stream.NewWatermarkSource(
				stream.NewTimestampedBinarySource(bytes.NewReader(d)), 0, stream.LateCount, nil)
		}
		p, err := stream.NewOrderedMultiPipeline(context.Background(), srcs, w)
		if err != nil {
			b.Fatal(err)
		}
		n, err := p.Drain(sink)
		if err != nil {
			b.Fatal(err)
		}
		if n != uint64(m) {
			b.Fatalf("drained %d of %d edges", n, m)
		}
		for i, src := range srcs {
			if late := src.(*stream.WatermarkSource).LateEdges(); late != 0 {
				b.Fatalf("shard %d: %d late edges on sorted input", i, late)
			}
		}
	}
	onePass() // warm scratch tables untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		onePass()
	}
	b.StopTimer()
	reportEdgesPerSec(b, m)
}

// BenchMultiPipelined measures merged multi-file ingestion: one bulk
// decoder per shard feeding the shared recycle ring, drained into sink.
func BenchMultiPipelined(b *testing.B, shards [][]byte, w int, sink stream.AsyncSink) {
	m := 0
	for _, d := range shards {
		m += len(d) / 8
	}
	onePass := func() {
		srcs := make([]stream.Source, len(shards))
		for i, d := range shards {
			srcs[i] = stream.NewBinarySource(bytes.NewReader(d))
		}
		p, err := stream.NewMultiPipeline(context.Background(), srcs, w, 0)
		if err != nil {
			b.Fatal(err)
		}
		n, err := p.Drain(sink)
		if err != nil {
			b.Fatal(err)
		}
		if n != uint64(m) {
			b.Fatalf("drained %d of %d edges", n, m)
		}
	}
	onePass() // warm scratch tables untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		onePass()
	}
	b.StopTimer()
	reportEdgesPerSec(b, m)
}

// EncodeBlockShards is EncodeTimestampedShards for the block-structured
// v2 format: the same index-stamped round-robin deal, encoded with
// WriteBlockBinaryEdges at the default block size. Alternation on every
// edge keeps the blocks' timestamp ranges fully interleaved, so the
// merge cells over these shards price the block path's per-edge
// tournament with the whole-block gallop never engaging — the
// worst-case bar, matched cell-for-cell against the v1 shards.
func EncodeBlockShards(edges []graph.Edge, k int) [][]byte {
	shards := make([][]stream.TimestampedEdge, k)
	for i, e := range edges {
		shards[i%k] = append(shards[i%k], stream.TimestampedEdge{E: e, TS: int64(i)})
	}
	out := make([][]byte, k)
	for i, shard := range shards {
		var buf bytes.Buffer
		buf.Grow(16*len(shard) + 8)
		if err := stream.WriteBlockBinaryEdges(&buf, shard); err != nil {
			panic(err) // bytes.Buffer cannot fail
		}
		out[i] = buf.Bytes()
	}
	return out
}

// RunBlockBenchCells measures the block-structured v2 format against its
// v1 counterparts. The decode pair prices the formats' bulk decoders
// alone (discard sink, timestamps stripped): TsBinaryDecodeBulk is the
// v1 16-byte-record Peek/Discard scan, BlockDecodeBulk the v2 path —
// one CRC pass plus bounds validation per block, then batch fills
// straight out of the validated view. The OrderedMergedCountV2 cells
// rerun the worst-case round-robin merge cells on v2 shards, whose
// zero-copy block views skip the decode-and-encode the v1 shards pay to
// reach the merge; acceptance is the k=64 cell staying within 1.25× the
// ns/edge of the k=2 cell.
func RunBlockBenchCells(r, w int) []CoreBenchRow {
	edges := CoreBenchStream(PipeBenchEdges)
	m := PipeBenchEdges
	const runs = 3
	v1 := EncodeTimestampedShards(edges, 1)[0]
	v2 := EncodeBlockShards(edges, 1)[0]
	rows := []CoreBenchRow{
		benchRow(fmt.Sprintf("TsBinaryDecodeBulk/w=%d", w), "ts-binary-bulk", m, r, w, 0,
			medianBenchmark(runs, func(b *testing.B) {
				benchSourcePipelined(b, w, m, discardSink{}, func() stream.Source {
					return stream.StripTimestamps(stream.NewTimestampedBinarySource(bytes.NewReader(v1)))
				})
			})),
		benchRow(fmt.Sprintf("BlockDecodeBulk/w=%d", w), "block-bulk", m, r, w, 0,
			medianBenchmark(runs, func(b *testing.B) {
				benchSourcePipelined(b, w, m, discardSink{}, func() stream.Source {
					return stream.StripTimestamps(stream.NewBlockBinarySource(bytes.NewReader(v2)))
				})
			})),
	}
	for _, k := range []int{2, 8, 64} {
		shards := EncodeBlockShards(edges, k)
		rows = append(rows,
			benchRow(fmt.Sprintf("OrderedMergedCountV2/files=%d/r=%d/w=%d", k, r, w), "ordered-block-pipeline", m, r, w, 0,
				medianBenchmark(runs, func(b *testing.B) {
					BenchOrderedBlockPipelined(b, shards, m, w, core.NewCounter(r, 1))
				})))
	}
	return rows
}

// BenchOrderedBlockPipelined is BenchOrderedPipelined over v2 shards:
// every source is a block reader, so NewOrderedMultiPipeline merges its
// validated views directly. The edge count cannot be derived from the byte
// length (blocks carry headers and may be compressed), so it is passed
// in.
func BenchOrderedBlockPipelined(b *testing.B, shards [][]byte, m, w int, sink stream.AsyncSink) {
	onePass := func() {
		srcs := make([]stream.TimestampedSource, len(shards))
		for i, d := range shards {
			srcs[i] = stream.NewBlockBinarySource(bytes.NewReader(d))
		}
		p, err := stream.NewOrderedMultiPipeline(context.Background(), srcs, w)
		if err != nil {
			b.Fatal(err)
		}
		n, err := p.Drain(sink)
		if err != nil {
			b.Fatal(err)
		}
		if n != uint64(m) {
			b.Fatalf("drained %d of %d edges", n, m)
		}
	}
	onePass() // warm scratch tables untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		onePass()
	}
	b.StopTimer()
	reportEdgesPerSec(b, m)
}

// EncodeTextEdges renders edges in the SNAP-style text format.
func EncodeTextEdges(edges []graph.Edge) []byte {
	var buf bytes.Buffer
	buf.Grow(16 * len(edges))
	if err := stream.WriteEdgeList(&buf, edges); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// nextOnlySource hides a source's BatchFiller implementation, forcing
// the pipeline onto the per-edge Next fallback — the comparator for the
// bulk text scanner cells.
type nextOnlySource struct{ src stream.Source }

func (s nextOnlySource) Next() (graph.Edge, error) { return s.src.Next() }

// discardSink is the no-op consumer of the decode-only cells: it prices
// the decoder alone, the way the paper's Table 3 prices I/O+decode
// separately from processing.
type discardSink struct{}

func (discardSink) AddBatchAsync([]graph.Edge) {}
func (discardSink) Barrier()                   {}

// RunTextBenchCells measures text-format decoding through the pipeline:
// the per-edge Next path vs the bulk window scanner (TextSource.Fill),
// both into a discard sink so the cells price exactly the decoder (the
// counting cost is identical on both paths and tracked by the binary
// ingestion cells; it would only dilute this comparison). Acceptance
// for the bulk scanner is edges/sec(bulk) ≥ 1.3× the per-edge cell —
// the fused whole-window line scan must decisively beat paying one
// interface call and one ReadSlice per edge.
func RunTextBenchCells(r, w int) []CoreBenchRow {
	data := EncodeTextEdges(CoreBenchStream(PipeBenchEdges))
	m := PipeBenchEdges
	const runs = 3
	return []CoreBenchRow{
		benchRow(fmt.Sprintf("TextDecodePerEdge/w=%d", w), "text-per-edge", m, r, w, 0,
			medianBenchmark(runs, func(b *testing.B) {
				BenchTextPipelined(b, data, w, m, discardSink{}, false)
			})),
		benchRow(fmt.Sprintf("TextDecodeBulk/w=%d", w), "text-bulk", m, r, w, 0,
			medianBenchmark(runs, func(b *testing.B) {
				BenchTextPipelined(b, data, w, m, discardSink{}, true)
			})),
	}
}

// BenchTextPipelined measures pipelined text ingestion; bulk selects the
// TextSource.Fill window scanner, otherwise the per-edge Next fallback.
func BenchTextPipelined(b *testing.B, data []byte, w, m int, sink stream.AsyncSink, bulk bool) {
	benchSourcePipelined(b, w, m, sink, func() stream.Source {
		var src stream.Source = stream.NewTextSource(bytes.NewReader(data))
		if !bulk {
			src = nextOnlySource{src}
		}
		return src
	})
}

// benchSourcePipelined drives one source per pass through the minimal
// pipeline (ring depth 2) into sink — the decode-cell harness shared by
// the plain and timestamped text benchmarks.
func benchSourcePipelined(b *testing.B, w, m int, sink stream.AsyncSink, newSrc func() stream.Source) {
	onePass := func() {
		p, err := stream.NewPipeline(context.Background(), newSrc(), w, 2)
		if err != nil {
			b.Fatal(err)
		}
		n, err := p.Drain(sink)
		if err != nil {
			b.Fatal(err)
		}
		if n != uint64(m) {
			b.Fatalf("drained %d of %d edges", n, m)
		}
	}
	onePass() // warm scratch tables untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		onePass()
	}
	b.StopTimer()
	reportEdgesPerSec(b, m)
}

// EncodeTimestampedTextEdges renders edges as SNAP-style temporal
// "u\tv\tts" lines, stamped with unix-second-shaped timestamps
// (10 decimal digits, nondecreasing) — the column width real temporal
// exports carry, so the cells price the fused scanner against
// representative bytes.
func EncodeTimestampedTextEdges(edges []graph.Edge) []byte {
	temporal := make([]stream.TimestampedEdge, len(edges))
	for i, e := range edges {
		temporal[i] = stream.TimestampedEdge{E: e, TS: 1_700_000_000 + int64(i)}
	}
	var buf bytes.Buffer
	buf.Grow(28 * len(edges))
	if err := stream.WriteTimestampedEdgeList(&buf, temporal); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// RunTsTextBenchCells measures temporal text decoding through the
// pipeline, mirroring the plain pair: the per-edge NextTimestamped path
// vs the fused three-column window scanner (FillTimestamped), both
// behind StripTimestamps into a discard sink so the cells price exactly
// the decoder. Acceptance for the fused scanner is edges/sec(bulk) ≥
// 1.8× the per-edge cell; the companion claim tracked against the plain
// cells is temporal bulk decode approaching plain bulk decode (the
// remaining gap being the third column's extra bytes).
func RunTsTextBenchCells(r, w int) []CoreBenchRow {
	data := EncodeTimestampedTextEdges(CoreBenchStream(PipeBenchEdges))
	m := PipeBenchEdges
	const runs = 3
	return []CoreBenchRow{
		benchRow(fmt.Sprintf("TsTextDecodePerEdge/w=%d", w), "ts-text-per-edge", m, r, w, 0,
			medianBenchmark(runs, func(b *testing.B) {
				BenchTsTextPipelined(b, data, w, m, discardSink{}, false)
			})),
		benchRow(fmt.Sprintf("TsTextDecodeBulk/w=%d", w), "ts-text-bulk", m, r, w, 0,
			medianBenchmark(runs, func(b *testing.B) {
				BenchTsTextPipelined(b, data, w, m, discardSink{}, true)
			})),
	}
}

// BenchTsTextPipelined measures pipelined temporal text ingestion; bulk
// selects the fused FillTimestamped window scanner, otherwise the
// per-edge NextTimestamped fallback.
func BenchTsTextPipelined(b *testing.B, data []byte, w, m int, sink stream.AsyncSink, bulk bool) {
	benchSourcePipelined(b, w, m, sink, func() stream.Source {
		src := stream.StripTimestamps(stream.NewTimestampedTextSource(bytes.NewReader(data)))
		if !bulk {
			return nextOnlySource{src}
		}
		return src
	})
}
