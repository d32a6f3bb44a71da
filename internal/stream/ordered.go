package stream

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// OrderedMultiPipeline merges several sources into ONE deterministic
// stream: one decoder goroutine per source hands blocks of raw records
// to a merger goroutine, which re-sequences them by a k-way loser-tree
// merge on a per-record key before they reach the consumer — smallest
// key first, ties broken by source index (then intra-source order,
// which each decoder preserves). NewOrderedMultiPipeline keys each
// record by its timestamp; NewMergedPipeline, for plain sources, keys
// every record of a source's j-th block by j. The merged stream is
// therefore a pure function of the source contents and w: any scheduler
// interleaving of the decoders yields the same edge sequence, which is
// what the sequence-defined sliding-window estimator needs from a
// multi-file ingest and what makes whole-stream multi-file runs
// reproducible. The merge engine lives in blockmerge.go.
//
// Contract: the merged output is globally nondecreasing in timestamp iff
// every source is; the merge is deterministic either way (it never
// reorders within a source). Shutdown is first-error-wins across
// decoders (unless WithContinueOnSourceFailure confines a failure to its
// source), context cancellation stops everything, and batches delivered
// before an error are valid.
type OrderedMultiPipeline struct {
	pipe

	// views[i] is source i's hand-off: its decoder sends each view
	// there, and closes it at the source's end — a clean EOF, or a
	// failure continue-on-source-failure lets the run survive. With room
	// for one view, a source holds at most three blocks: one its decoder
	// fills, one in the channel, and one the merger reads.
	views []chan *blockView

	// decoders counts the decoder goroutines still running; the merger
	// waits for them on its way out, then releases the views left in
	// the channels.
	decoders sync.WaitGroup

	// replays counts the merger's tournament decisions (tree replays
	// and exhausts), stored as the merger exits; the gallop tests read
	// it after a full drain.
	replays int

	// failed counts sources ended by a failure under
	// continue-on-source-failure; when it reaches len(perSource) the run
	// fails.
	failed    atomic.Int32
	perSource []pipeProgress // decoded blocks, edges and decode time; the aggregate counts merged deliveries
}

// NewOrderedMultiPipeline starts one decoder goroutine per timestamped
// source plus a merger goroutine, delivering merged batches of up to w
// edges. Cancelling ctx stops everything and surfaces ctx.Err() from
// Next. The caller must drain the pipeline to io.EOF or call Close, or
// the goroutines leak.
//
// Every source feeds the same block-granular engine. A v2 block reader
// (BlockBinarySource) hands over its validated zero-copy views; any
// other source — a v1 or text reader, a slice, the watermark stage — is
// adapted by filling recycled blocks of up to min(w, DefaultBlockRecords)
// records through its FillTimestamped, computing each block's exact
// maximum timestamp as it fills. Each source holds at most three blocks.
//
// Options: WithMaxBadRecords applies per source (which records a source
// skips is a pure function of that source's bytes, so the merged stream
// stays deterministic); it is charged once per malformed record, except
// for v2 readers, where a damaged block is one charge however many
// records it lost. WithContinueOnSourceFailure ends a failed source
// after the blocks it delivered (see its doc).
func NewOrderedMultiPipeline(ctx context.Context, srcs []TimestampedSource, w int, opts ...PipeOption) (*OrderedMultiPipeline, error) {
	return newBlockMerge(ctx, len(srcs), w, opts, func(i, records int) blockSource {
		return asBlockSource(srcs[i], records)
	})
}

// NewMergedPipeline is NewOrderedMultiPipeline for plain sources, which
// carry no timestamps. Each source fills blocks of min(w,
// DefaultBlockRecords) edges through its bulk Fill (Next otherwise), and
// every record of its j-th block is keyed j, so the merged stream is the
// round-robin interleave of the sources' blocks: block 0 of sources
// 0…k−1, then block 1, and so on, a source leaving the rotation when it
// runs out. Unlike a first-come merge, which keeps draining the other
// sources while one stalls, the merge waits for the slowest source's
// next block. Options and shutdown are NewOrderedMultiPipeline's.
func NewMergedPipeline(ctx context.Context, srcs []Source, w int, opts ...PipeOption) (*OrderedMultiPipeline, error) {
	return newBlockMerge(ctx, len(srcs), w, opts, func(i, records int) blockSource {
		return &filledBlockSource{fill: keyedFill(srcs[i], records), scratch: make([]TimestampedEdge, records)}
	})
}

// newBlockMerge is the constructors' shared body: source(i, records)
// adapts source i of k to blocks of up to records edges, and each runs
// on its own decoder goroutine next to the merger.
func newBlockMerge(ctx context.Context, k, w int, opts []PipeOption, source func(i, records int) blockSource) (*OrderedMultiPipeline, error) {
	if w <= 0 {
		return nil, fmt.Errorf("stream: pipeline batch size %d must be positive", w)
	}
	if k == 0 {
		return nil, fmt.Errorf("stream: multi-source pipeline needs at least one source")
	}
	p := &OrderedMultiPipeline{
		views:     make([]chan *blockView, k),
		perSource: make([]pipeProgress, k),
	}
	p.init(ctx, w, DefaultPipelineDepth, opts)
	producers := make([]func(), 0, k+1)
	p.decoders.Add(k)
	for i := range p.views {
		p.views[i] = make(chan *blockView, 1)
		src := source(i, min(w, DefaultBlockRecords))
		producers = append(producers, func() { p.decodeBlocks(i, src) })
	}
	p.start(append(producers, p.mergeBlocks)...)
	return p, nil
}

// Stats returns a snapshot of the merged pipeline's progress. Edges and
// Batches count merged deliveries to the consumer; DecodeSeconds sums
// the decoder goroutines' time reading blocks from their sources and
// can exceed wall time when decoders run concurrently.
func (p *OrderedMultiPipeline) Stats() PipelineStats {
	s := p.snapshot()
	var ns int64
	for i := range p.perSource {
		ns += p.perSource[i].decodeNs.Load()
		s.BadRecords += p.perSource[i].badRecords.Load()
	}
	s.DecodeSeconds = float64(ns) / 1e9
	return s
}

// SourceStats returns per-source progress snapshots, indexed like the
// srcs argument: edges decoded and handed to the merger, blocks
// (Batches), and decode time per source. After a complete drain the
// per-source edges sum to the aggregate Stats().Edges; mid-stream the
// merger may hold a few not-yet-delivered edges.
func (p *OrderedMultiPipeline) SourceStats() []PipelineStats {
	out := make([]PipelineStats, len(p.perSource))
	for i := range p.perSource {
		out[i] = p.perSource[i].snapshot()
	}
	return out
}
