package bench

import (
	"bytes"
	"context"
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
// bytes: bulk batch decoding on the decoder goroutine overlapping the
// sink's AddBatch, zero steady-state allocation.
func BenchPipePipelined(b *testing.B, data []byte, w, depth int, sink stream.Sink) {
	pipeOnePass(b, data, w, depth, sink) // warm scratch tables untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipeOnePass(b, data, w, depth, sink)
	}
	b.StopTimer()
	reportEdgesPerSec(b, len(data)/8)
}

func pipeOnePass(b *testing.B, data []byte, w, depth int, sink stream.Sink) {
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

// EncodeTimestampedShards stamps edges with their stream index as the
// timestamp and deals them round-robin into k timestamped binary shards
// — the worst case for the k-way merge, which must alternate between
// sources on every single edge (contiguous halves would degenerate to
// concatenation). The merge of these shards reproduces the original
// stream exactly, so the ordered cell counts the same work as the
// MultiPipelinedCount cell.
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
// sink. Determinism is the point; the tournament replays and the extra
// buffer hop are the price, and that price must stay small.
func BenchOrderedPipelined(b *testing.B, shards [][]byte, w int, sink stream.Sink) {
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
func BenchWatermarkedPipelined(b *testing.B, shards [][]byte, w int, sink stream.Sink) {
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

// BenchMultiPipelined measures merged multi-file ingestion of plain
// sources: one bulk decoder per shard filling blocks for the block merge
// (NewMergedPipeline), drained into sink.
func BenchMultiPipelined(b *testing.B, shards [][]byte, w int, sink stream.Sink) {
	m := 0
	for _, d := range shards {
		m += len(d) / 8
	}
	onePass := func() {
		srcs := make([]stream.Source, len(shards))
		for i, d := range shards {
			srcs[i] = stream.NewBinarySource(bytes.NewReader(d))
		}
		p, err := stream.NewMergedPipeline(context.Background(), srcs, w)
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

// BenchOrderedBlockPipelined is BenchOrderedPipelined over v2 shards:
// every source is a block reader, so NewOrderedMultiPipeline merges its
// validated views directly. The edge count cannot be derived from the byte
// length (blocks carry headers and may be compressed), so it is passed
// in.
func BenchOrderedBlockPipelined(b *testing.B, shards [][]byte, m, w int, sink stream.Sink) {
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

func (discardSink) AddBatch([]graph.Edge) {}

// BenchTextPipelined measures pipelined text ingestion; bulk selects the
// TextSource.Fill window scanner, otherwise the per-edge Next fallback.
func BenchTextPipelined(b *testing.B, data []byte, w, m int, sink stream.Sink, bulk bool) {
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
func benchSourcePipelined(b *testing.B, w, m int, sink stream.Sink, newSrc func() stream.Source) {
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

// BenchTsTextPipelined measures pipelined temporal text ingestion; bulk
// selects the fused FillTimestamped window scanner, otherwise the
// per-edge NextTimestamped fallback.
func BenchTsTextPipelined(b *testing.B, data []byte, w, m int, sink stream.Sink, bulk bool) {
	benchSourcePipelined(b, w, m, sink, func() stream.Source {
		src := stream.StripTimestamps(stream.NewTimestampedTextSource(bytes.NewReader(data)))
		if !bulk {
			return nextOnlySource{src}
		}
		return src
	})
}
