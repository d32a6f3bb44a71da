package streamtri

import (
	"context"
	"io"

	"streamtri/internal/stream"
)

// Source yields the edges of a stream in order; Next returns io.EOF
// after the last edge. It is the input type of the CountStream methods,
// which decode it on a separate goroutine so I/O and parsing overlap
// counting (the pipelined-ingestion architecture; see doc.go).
type Source = stream.Source

// NewSliceSource returns a Source over an in-memory edge slice (not
// copied).
func NewSliceSource(edges []Edge) Source { return stream.NewSliceSource(edges) }

// NewEdgeListSource returns a streaming Source over a SNAP-style text
// edge list ("u v" or "u\tv" per line, '#'/'%' comments, self loops
// dropped). It holds one line in memory at a time, so files larger than
// RAM stream fine. It does not deduplicate edges — the counters require
// simple streams, so dedup raw data offline (ReadEdgeList with dedup
// buffers the whole set).
func NewEdgeListSource(r io.Reader) Source { return stream.NewTextSource(r) }

// NewBinaryEdgeSource returns a streaming Source over the fixed
// 8-bytes-per-edge little-endian binary format (u32 U, u32 V, no
// header) written by WriteBinaryEdges. Binary decoding is batched, so
// this is the fastest ingestion path.
func NewBinaryEdgeSource(r io.Reader) Source { return stream.NewBinarySource(r) }

// WriteBinaryEdges writes edges in the binary edge format read by
// NewBinaryEdgeSource.
func WriteBinaryEdges(w io.Writer, edges []Edge) error {
	return stream.WriteBinaryEdges(w, edges)
}

// ReadBinaryEdges reads a whole binary edge stream into memory.
func ReadBinaryEdges(r io.Reader) ([]Edge, error) {
	return stream.ReadBinaryEdges(r)
}

// TimestampedEdge is one stream edge tagged with its arrival timestamp
// (an opaque int64 — SNAP temporal exports use unix seconds; only the
// order matters). It is the input type of ordered multi-source
// ingestion: OrderedMultiPipeline merges several timestamped sources
// into one deterministic timestamp-ordered stream.
type TimestampedEdge = stream.TimestampedEdge

// TimestampedSource yields timestamped edges in source order;
// NextTimestamped returns io.EOF after the last edge. It is the input
// type of SlidingWindowCounter.CountStreams.
type TimestampedSource = stream.TimestampedSource

// NewTimestampedSliceSource returns a TimestampedSource over an
// in-memory timestamped edge slice (not copied).
func NewTimestampedSliceSource(edges []TimestampedEdge) TimestampedSource {
	return stream.NewTimestampedSliceSource(edges)
}

// NewTimestampedEdgeListSource returns a streaming TimestampedSource
// over a SNAP-style temporal edge list: "u v ts" per line, where ts —
// the third column the plain decoder ignores — is a decimal int64
// timestamp; further numeric columns (weights) are tolerated.
func NewTimestampedEdgeListSource(r io.Reader) TimestampedSource {
	return stream.NewTimestampedTextSource(r)
}

// NewTimestampedBinaryEdgeSource returns a streaming TimestampedSource
// over the versioned timestamped binary format (8-byte header, 16-byte
// little-endian records: u32 U, u32 V, i64 timestamp) written by
// WriteTimestampedBinaryEdges.
func NewTimestampedBinaryEdgeSource(r io.Reader) TimestampedSource {
	return stream.NewTimestampedBinarySource(r)
}

// WriteTimestampedEdgeList writes edges as "u\tv\tts" lines, the
// temporal text format read by NewTimestampedEdgeListSource.
func WriteTimestampedEdgeList(w io.Writer, edges []TimestampedEdge) error {
	return stream.WriteTimestampedEdgeList(w, edges)
}

// WriteTimestampedBinaryEdges writes edges in the versioned timestamped
// binary format read by NewTimestampedBinaryEdgeSource.
func WriteTimestampedBinaryEdges(w io.Writer, edges []TimestampedEdge) error {
	return stream.WriteTimestampedBinaryEdges(w, edges)
}

// ReadTimestampedBinaryEdges reads a whole timestamped binary stream
// into memory.
func ReadTimestampedBinaryEdges(r io.Reader) ([]TimestampedEdge, error) {
	return stream.ReadTimestampedBinaryEdges(r)
}

// NewBlockBinaryEdgeSource returns a streaming TimestampedSource over
// the block-structured binary format v2 ("STRTSB02") written by
// WriteBlockBinaryEdges: self-describing blocks whose headers carry the
// record count, the min/max timestamp, and a CRC-32C checksum. Each
// block is validated once — checksum, declared bounds, structure — and
// its records then flow downstream without per-record header work; when
// every source of an ordered multi-source ingest reads this format, the
// k-way merge additionally gallops at block granularity, copying whole
// blocks through on their header bounds. Corruption is block-confined:
// a damaged block is one skippable decode error (see
// WithDecodeErrorPolicy) and reading resumes at the next block.
func NewBlockBinaryEdgeSource(r io.Reader) TimestampedSource {
	return stream.NewBlockBinarySource(r)
}

// BlockOption configures WriteBlockBinaryEdges.
type BlockOption = stream.BlockOption

// WithBlockRecords sets the writer's records-per-block target (default
// stream.DefaultBlockRecords = 4096). Larger blocks amortize headers
// and lengthen block-granular merge gallops; smaller blocks bound the
// damage radius of a corrupt checksum.
func WithBlockRecords(n int) BlockOption { return stream.WithBlockRecords(n) }

// WithBlockDeltaTimestamps enables varint-delta timestamp compression
// in written blocks (~9-10 bytes per record instead of 16 on sorted or
// near-sorted streams). Readers handle both layouts transparently.
func WithBlockDeltaTimestamps() BlockOption { return stream.WithBlockDeltaTimestamps() }

// WriteBlockBinaryEdges writes edges in the block-structured binary
// format v2 read by NewBlockBinaryEdgeSource.
func WriteBlockBinaryEdges(w io.Writer, edges []TimestampedEdge, opts ...BlockOption) error {
	return stream.WriteBlockBinaryEdges(w, edges, opts...)
}

// ReadBlockBinaryEdges reads a whole v2 block binary stream into memory.
func ReadBlockBinaryEdges(r io.Reader) ([]TimestampedEdge, error) {
	return stream.ReadBlockBinaryEdges(r)
}

// StripTimestamps adapts a TimestampedSource to a plain Source by
// discarding each edge's timestamp (source order preserved, bulk
// decoding kept) — the bridge for feeding temporal exports to the
// whole-stream counters, which ignore arrival times.
func StripTimestamps(src TimestampedSource) Source { return stream.StripTimestamps(src) }

// StreamFormat identifies a binary edge-stream flavor from its first
// bytes; see SniffFormat.
type StreamFormat = stream.StreamFormat

const (
	// FormatUnknown: no recognized magic (headerless plain binary and
	// text streams both land here).
	FormatUnknown StreamFormat = stream.FormatUnknown
	// FormatTimestampedBinary is the v1 timestamped binary format
	// ("STRTSB01" + bare 16-byte records).
	FormatTimestampedBinary StreamFormat = stream.FormatTimestampedBinary
	// FormatBlockBinary is the block-structured v2 format ("STRTSB02" +
	// self-describing blocks).
	FormatBlockBinary StreamFormat = stream.FormatBlockBinary
)

// SniffFormat classifies a stream from its first bytes (8 suffice) —
// the one shared sniff behind every tool that dispatches on a binary
// flavor. Each decoder also rejects the other flavors' streams with a
// descriptive error, so mis-dispatch fails loudly rather than decoding
// garbage.
func SniffFormat(prefix []byte) StreamFormat { return stream.SniffFormat(prefix) }

// IsTimestampedBinary reports whether prefix (at least the first 8
// bytes of a stream) opens with the v1 timestamped binary magic —
// shorthand for SniffFormat(prefix) == FormatTimestampedBinary.
func IsTimestampedBinary(prefix []byte) bool { return stream.IsTimestampedBinary(prefix) }

// LatePolicy selects what the bounded-lateness watermark stage
// (WithLateness) does with late edges: LateDrop, LateCount, or
// LateSideChannel. See the stream-layer constants for the exact
// contract.
type LatePolicy = stream.LatePolicy

const (
	// LateDrop discards late edges silently (the default).
	LateDrop LatePolicy = stream.LateDrop
	// LateCount discards late edges and counts them in
	// StreamStats.LateEdges.
	LateCount LatePolicy = stream.LateCount
	// LateSideChannel discards and counts late edges and hands each one
	// to the WithLateSideChannel callback.
	LateSideChannel LatePolicy = stream.LateSideChannel
)

// SourceStats is one input's share of a multi-source ingestion run:
// the edges and batches its decoder delivered and the time that decoder
// spent in I/O+parsing. Skewed shards show up here — one fat file
// dominating Edges while its siblings idle.
type SourceStats struct {
	Edges         uint64
	Batches       uint64
	DecodeSeconds float64

	// BadRecords counts malformed records this source skipped under
	// WithDecodeErrorPolicy; BadRecordSamples retains the first few of
	// their error messages.
	BadRecords       uint64
	BadRecordSamples []string

	// LateEdges counts edges the watermark stage discarded from this
	// source as late (WithLateness with LateCount or LateSideChannel).
	LateEdges uint64

	// Err is this source's terminal error when it was abandoned under
	// WithContinueOnSourceFailure; nil for live or cleanly finished
	// sources.
	Err error
}

// StreamStats reports how a CountStream call spent its time, in the
// spirit of the paper's Table 3, which prices I/O separately from
// processing.
type StreamStats struct {
	Edges         uint64  // edges decoded and counted
	Batches       uint64  // batches handed to the counter
	DecodeSeconds float64 // decoder-goroutine time in I/O+parsing; overlaps processing wall time

	// BadRecords and LateEdges aggregate the per-source skip counts of
	// WithDecodeErrorPolicy and the watermark stage's late-edge count
	// (under LateCount/LateSideChannel) across all sources.
	BadRecords uint64
	LateEdges  uint64

	// PerSource attributes the run to each input of a multi-source
	// CountStreams call, indexed like the srcs argument; nil for
	// single-source runs. Edges sum to the aggregate; DecodeSeconds sum
	// to the aggregate decode figure.
	PerSource []SourceStats
}

// countStream runs the shared pipeline loop: decode src in w-edge
// batches on a dedicated goroutine and feed them to sink.
func countStream(ctx context.Context, src Source, w, depth int, ing ingest, sink stream.Sink) (StreamStats, error) {
	p, err := stream.NewPipeline(ctx, src, w, depth, ing.pipeOpts(false)...)
	if err != nil {
		return StreamStats{}, err
	}
	n, err := p.Drain(sink)
	st := p.Stats()
	return StreamStats{
		Edges:         n,
		Batches:       st.Batches,
		DecodeSeconds: st.DecodeSeconds,
		BadRecords:    st.BadRecords,
	}, err
}

// countOrderedStreams is the timestamp-merged flavor of CountStreams:
// one decoder per timestamped source, records re-sequenced by the k-way
// merge before the sink sees them, so the merged stream — and any
// order-sensitive estimator consuming it — is deterministic for any
// scheduler interleaving. With the watermark
// enabled (WithLateness), each source is wrapped in a bounded-lateness
// reorder stage before the merge, so per-source disorder up to the
// lateness bound is repaired where the merge's per-source-order
// assumption needs it.
func countOrderedStreams(ctx context.Context, srcs []TimestampedSource, w int, ing ingest, sink stream.Sink) (StreamStats, error) {
	var wms []*stream.WatermarkSource
	if ing.watermark {
		wms = make([]*stream.WatermarkSource, len(srcs))
		wrapped := make([]TimestampedSource, len(srcs))
		for i, src := range srcs {
			wms[i] = stream.NewWatermarkSource(src, ing.lateness, ing.latePolicy, ing.onLate)
			wrapped[i] = wms[i]
		}
		srcs = wrapped
	}
	p, err := stream.NewOrderedMultiPipeline(ctx, srcs, w, ing.pipeOpts(false)...)
	if err != nil {
		return StreamStats{}, err
	}
	out, err := drainMerge(p, sink)
	for i, wm := range wms {
		late := wm.LateEdges()
		out.LateEdges += late
		if i < len(out.PerSource) {
			out.PerSource[i].LateEdges = late
		}
	}
	return out, err
}

// drainMerge feeds every merged batch to sink and reports the run,
// attributed per source.
func drainMerge(p *stream.OrderedMultiPipeline, sink stream.Sink) (StreamStats, error) {
	n, err := p.Drain(sink)
	st := p.Stats()
	return StreamStats{
		Edges:         n,
		Batches:       st.Batches,
		DecodeSeconds: st.DecodeSeconds,
		BadRecords:    st.BadRecords,
		PerSource:     perSourceStats(p.SourceStats()),
	}, err
}

// perSourceStats converts the pipeline's per-source snapshots to the
// public type.
func perSourceStats(per []stream.PipelineStats) []SourceStats {
	out := make([]SourceStats, len(per))
	for i, s := range per {
		out[i] = SourceStats{
			Edges:            s.Edges,
			Batches:          s.Batches,
			DecodeSeconds:    s.DecodeSeconds,
			BadRecords:       s.BadRecords,
			BadRecordSamples: s.BadRecordSamples,
			Err:              s.Err,
		}
	}
	return out
}

// CountStream consumes src to exhaustion, decoding batches on a
// dedicated goroutine so I/O overlaps counting. It returns once every
// decoded edge has been absorbed (no Flush needed for them). Edges
// buffered by earlier Add calls are flushed first, so stream order is
// preserved. On error (including ctx cancellation) the counter remains
// valid and reflects exactly the edges reported in StreamStats.
func (t *wholeStream[E]) CountStream(ctx context.Context, src Source) (StreamStats, error) {
	t.Flush()
	st, err := countStream(ctx, src, t.w, t.depth, t.ing, t.eng)
	t.added += st.Edges
	return st, err
}

// CountStreams consumes several sources (typically one per input file)
// to exhaustion, decoding each on its own goroutine, so the decoders
// overlap each other and the counting. The sources are merged in blocks
// of min(w, 4096) edges, w the batch size: block 0 of every source in
// argument order, then block 1, and so on. The merged stream, and so
// the estimate, is a pure function of the inputs, w and the seed,
// whatever the scheduler does. The merge waits for the slowest source's
// next block. With a single source it is exactly CountStream.
// StreamStats.DecodeSeconds aggregates all decoders and can exceed wall
// time. On error (the first source failure wins, unless
// WithContinueOnSourceFailure) the counter remains valid and reflects
// exactly the edges reported in StreamStats.
func (t *wholeStream[E]) CountStreams(ctx context.Context, srcs ...Source) (StreamStats, error) {
	switch len(srcs) {
	case 0:
		return StreamStats{}, nil
	case 1:
		return t.CountStream(ctx, srcs[0])
	}
	t.Flush()
	p, err := stream.NewMergedPipeline(ctx, srcs, t.w, t.ing.pipeOpts(true)...)
	if err != nil {
		return StreamStats{}, err
	}
	st, err := drainMerge(p, t.eng)
	t.added += st.Edges
	return st, err
}
