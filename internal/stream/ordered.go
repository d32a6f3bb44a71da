package stream

import (
	"context"
	"fmt"
	"io"
	"sync"

	"streamtri/internal/graph"
)

// OrderedMultiPipeline merges several timestamped sources into ONE
// deterministic stream: one decoder goroutine per source hands blocks
// of raw records to a merger goroutine, which re-sequences them by a
// k-way loser-tree merge on the per-edge timestamp before they reach
// the consumer — smallest timestamp first, ties broken by source index
// (then intra-source order, which each decoder preserves). The merged
// stream is therefore a pure function of the source contents: any
// scheduler interleaving of the decoders yields the same edge sequence,
// which is what the sequence-defined sliding-window estimator needs
// from a multi-file ingest. The merge engine lives in blockmerge.go.
//
// Contract: the merged output is globally nondecreasing in timestamp iff
// every source is; the merge is deterministic either way (it never
// reorders within a source). Shutdown mirrors MultiPipeline:
// first-error-wins across decoders, context cancellation stops
// everything, and batches delivered before an error are valid.
type OrderedMultiPipeline struct {
	out     chan []graph.Edge // merged batches to the consumer
	recycle chan []graph.Edge // consumer-side ring of merged buffers

	// blockHandoff is the single decoder→merger ring: every block view
	// arrives here tagged with its source index (a nil view marks a
	// cleanly exhausted source). Flow control is per-source credits — a
	// decoder surrenders one credit per view sent and the merger returns
	// it when it releases the view — so no source can flood the merger
	// while it waits on a slower one.
	blockHandoff chan srcBlock
	credits      []chan struct{}

	// pendingViews and eof are the merger goroutine's private reorder
	// state: views popped from blockHandoff while looking for another
	// source's next view wait here (bounded by the credit count), and eof
	// marks sources whose nil marker has arrived. Only the merger touches
	// them.
	pendingViews [][]*blockView
	eof          []bool

	// replays counts the merger's tournament decisions (tree replays
	// and exhausts), stored as the merger exits; the gallop tests read
	// it after a full drain.
	replays int

	quit chan struct{}
	ctx  context.Context

	// err is the first terminal error; errOnce arbitrates the race
	// between failing decoders, cancellation, and Close. out is closed
	// only after every goroutine exits, so a consumer that observes out
	// closed observes err too.
	err      error
	errOnce  sync.Once
	quitOnce sync.Once

	wg        sync.WaitGroup // decoders + merger
	closeOnce sync.Once

	cfg pipeCfg

	pipeProgress // aggregate: merged edges/batches (decode time lives per source)
	perSource    []pipeProgress
}

// srcCredits is the per-source hand-off budget: how many views one
// source may have queued at the merger (in the hand-off ring plus the
// merger's pending box) before its decoder must wait for the merger to
// release one. Two keeps a decoder filling its next view while the
// merger holds the previous one.
const srcCredits = 2

// NewOrderedMultiPipeline starts one decoder goroutine per timestamped
// source plus a merger goroutine, delivering merged batches of up to w
// edges. Cancelling ctx stops everything and surfaces ctx.Err() from
// Next. The caller must drain the pipeline to io.EOF or call Close, or
// the goroutines leak.
//
// Every source feeds the same block-granular engine. A v2 block reader
// (BlockBinarySource) hands over its validated zero-copy views; any
// other source — a v1 or text reader, a slice, the watermark stage — is
// adapted by filling pooled blocks of up to min(w, DefaultBlockRecords)
// records through its FillTimestamped, computing each block's exact
// maximum timestamp as it fills. Each source holds at most srcCredits+1 blocks.
//
// Options: WithMaxBadRecords applies per source (which records a source
// skips is a pure function of that source's bytes, so the merged stream
// stays deterministic); it is charged once per malformed record, except
// for v2 readers, where a damaged block is one charge however many
// records it lost. WithContinueOnSourceFailure is deliberately ignored:
// the merged stream is a pure function of the source contents, and
// completing without a mid-merge-dead source would silently emit a
// stream missing an unpredictable timestamp-interleaved subset — an
// order-sensitive consumer (the sliding window) would get a wrong
// answer instead of an error, so the ordered merge stays fail-fast.
func NewOrderedMultiPipeline(ctx context.Context, srcs []TimestampedSource, w int, opts ...PipeOption) (*OrderedMultiPipeline, error) {
	if w <= 0 {
		return nil, fmt.Errorf("stream: pipeline batch size %d must be positive", w)
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("stream: ordered multi pipeline needs at least one source")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	k := len(srcs)
	p := &OrderedMultiPipeline{
		out:     make(chan []graph.Edge, DefaultPipelineDepth),
		recycle: make(chan []graph.Edge, DefaultPipelineDepth),
		// Capacity for every credit-gated view plus one end-of-source
		// marker per source: hand-off sends effectively never block.
		blockHandoff: make(chan srcBlock, (srcCredits+1)*k),
		credits:      make([]chan struct{}, k),
		pendingViews: make([][]*blockView, k),
		eof:          make([]bool, k),
		quit:         make(chan struct{}),
		ctx:          ctx,
		cfg:          buildPipeCfg(opts),
		perSource:    make([]pipeProgress, k),
	}
	for i := 0; i < DefaultPipelineDepth; i++ {
		p.recycle <- make([]graph.Edge, 0, w)
	}
	for i := range p.credits {
		p.credits[i] = make(chan struct{}, srcCredits)
		for j := 0; j < srcCredits; j++ {
			p.credits[i] <- struct{}{}
		}
	}
	p.wg.Add(k + 1)
	for i, src := range srcs {
		go p.decodeBlocks(i, asBlockSource(src, min(w, DefaultBlockRecords)))
	}
	go p.mergeBlocks()
	// out is closed exactly once, after the decoders and the merger have
	// all exited; the consumer side can therefore never block forever,
	// and err is always visible once out is closed.
	go func() {
		p.wg.Wait()
		close(p.out)
	}()
	return p, nil
}

// fail records err as the pipeline's terminal error if it is the first,
// and triggers the shutdown of every goroutine either way.
func (p *OrderedMultiPipeline) fail(err error) {
	p.errOnce.Do(func() { p.err = err })
	p.quitOnce.Do(func() { close(p.quit) })
}

// acquireOut draws an empty merged-output buffer from the consumer ring.
func (p *OrderedMultiPipeline) acquireOut() ([]graph.Edge, bool) {
	b, ok := recvOrQuit(p.ctx, p.quit, p.recycle, p.fail)
	if !ok {
		return nil, false
	}
	return b[:0], true
}

// deliver hands one merged batch to the consumer and counts it in the
// aggregate stats.
func (p *OrderedMultiPipeline) deliver(b []graph.Edge) bool {
	if !sendOrQuit(p.ctx, p.quit, p.out, b, p.fail) {
		return false
	}
	p.edges.Add(uint64(len(b)))
	p.batches.Add(1)
	return true
}

// Next returns the next timestamp-merged batch. It returns io.EOF after
// every source's last edge, the first decoder error if any decoding
// failed, or ctx.Err() if the pipeline's context was cancelled. The
// returned slice is owned by the caller until passed to Recycle.
func (p *OrderedMultiPipeline) Next() ([]graph.Edge, error) {
	b, ok := <-p.out
	if !ok {
		if p.err != nil && p.err != errPipelineClosed {
			return nil, p.err
		}
		return nil, io.EOF
	}
	return b, nil
}

// Recycle returns a batch obtained from Next to the merged-output ring.
// The caller must not touch the slice afterwards.
func (p *OrderedMultiPipeline) Recycle(b []graph.Edge) {
	if cap(b) == 0 {
		return
	}
	select {
	case p.recycle <- b[:0]:
	default:
		// Foreign or duplicate buffer with the ring already full; drop it
		// rather than block.
	}
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

// Close stops every goroutine, waits for all of them to exit, and
// returns the first terminal error, if any. A clean end of all streams,
// shutdown via Close itself, and repeated calls return nil; a context
// cancellation returns the context's error. Close is safe whether or not
// the pipeline was drained.
func (p *OrderedMultiPipeline) Close() error {
	p.closeOnce.Do(func() {
		p.fail(errPipelineClosed)
		// Unblock the merger and decoders, then wait for the closer
		// goroutine: out closes only after every goroutine exits.
		for range p.out {
		}
	})
	if p.err == errPipelineClosed {
		return nil
	}
	return p.err
}

// Run drives the merged pipeline to completion, invoking fn for every
// batch and recycling buffers automatically; fn must not retain its
// argument.
func (p *OrderedMultiPipeline) Run(fn func(batch []graph.Edge) error) error { return runPipe(p, fn) }

// Drain feeds every merged batch to sink through AddBatchAsync with the
// same recycling contract as Pipeline.Drain, returning the number of
// edges the sink absorbed.
func (p *OrderedMultiPipeline) Drain(sink AsyncSink) (uint64, error) { return drainPipe(p, sink) }
