package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"streamtri/internal/graph"
)

// MultiPipeline parallelizes ingestion itself, not just decode-vs-count:
// one decoder goroutine per input Source (typically one per file), each
// filling fixed-size batch buffers drawn from a single shared recycle
// ring and funneling them into one output channel. With one stream the
// pipeline overlaps decoding with counting; with several it also overlaps
// the decoders with each other, so I/O+decode scales with the number of
// input files the way partitioned-ingest systems scale with hardware.
//
// The merged stream is "ordered enough": batches from one source arrive
// in that source's order, but the interleaving across sources is
// scheduler-dependent. The adjacency-stream model makes no ordering
// assumption (the paper admits arbitrary, even adversarial, order), so
// the estimate distribution is unaffected; run-to-run bit-reproducibility
// is what is given up, and only for len(srcs) > 1.
//
// Shutdown is first-error-wins: the first decoder to fail (or the
// context's cancellation, or Close) stops all of them, and that first
// error is what Next and Close report. Batches delivered before the
// error are valid — a consumer that absorbed them reflects exactly the
// edges it was handed. WithContinueOnSourceFailure trades the first
// contract away: a failed source is abandoned (terminal error in its
// SourceStats entry) and the survivors run to completion; the run
// itself fails only when every source has.
type MultiPipeline struct {
	out     chan []graph.Edge
	recycle chan []graph.Edge
	quit    chan struct{}
	ctx     context.Context

	// err is the first terminal error; errOnce arbitrates the race
	// between failing decoders, cancellation, and Close. The write
	// happens before the writer's wg.Done, and out is closed only after
	// wg.Wait, so a consumer that observes out closed observes err too.
	err      error
	errOnce  sync.Once
	quitOnce sync.Once

	wg        sync.WaitGroup
	closeOnce sync.Once

	cfg pipeCfg
	// failed counts sources abandoned under continue-on-source-failure;
	// when it reaches len(perSource) the run has nothing left to deliver
	// and fails with the last source's error.
	failed atomic.Int32

	pipeProgress
	// perSource holds one progress counter per input source (same index
	// as the srcs argument), so skewed shards are attributable.
	perSource []pipeProgress
}

// NewMultiPipeline starts one decoder goroutine per source, all drawing
// w-edge batch buffers from a shared recycle ring of depth buffers.
// depth <= 0 selects DefaultPipelineDepth plus one buffer per additional
// source (so a single source matches NewPipeline's default, and every
// decoder can hold a buffer without starving the hand-off channel);
// values below 2 are raised to 2. Cancelling ctx stops every decoder and
// surfaces ctx.Err() from Next. The caller must drain the pipeline to
// io.EOF or call Close, or the decoder goroutines leak. Options:
// WithMaxBadRecords, WithContinueOnSourceFailure.
func NewMultiPipeline(ctx context.Context, srcs []Source, w, depth int, opts ...PipeOption) (*MultiPipeline, error) {
	if w <= 0 {
		return nil, fmt.Errorf("stream: pipeline batch size %d must be positive", w)
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("stream: multi pipeline needs at least one source")
	}
	if depth <= 0 {
		depth = DefaultPipelineDepth + len(srcs) - 1
	}
	if depth < 2 {
		depth = 2
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := &MultiPipeline{
		out:     make(chan []graph.Edge, depth),
		recycle: make(chan []graph.Edge, depth),
		quit:    make(chan struct{}),
		ctx:     ctx,
		cfg:     buildPipeCfg(opts),
	}
	for i := 0; i < depth; i++ {
		p.recycle <- make([]graph.Edge, w)
	}
	p.perSource = make([]pipeProgress, len(srcs))
	p.wg.Add(len(srcs))
	for i, src := range srcs {
		go p.decode(i, src, w)
	}
	// out is closed exactly once, after every decoder has exited (clean
	// EOF on all sources, or first-error shutdown); the consumer side can
	// therefore never block forever.
	go func() {
		p.wg.Wait()
		close(p.out)
	}()
	return p, nil
}

// fail records err as the pipeline's terminal error if it is the first,
// and triggers the shutdown of every decoder either way.
func (p *MultiPipeline) fail(err error) {
	p.errOnce.Do(func() { p.err = err })
	p.quitOnce.Do(func() { close(p.quit) })
}

// decode is one source's decoder goroutine: it runs the shared
// decodeLoop against the shared ring and output channel, recording
// progress both in aggregate and per source. A clean EOF ends only this
// source; the others keep going. Decoder failures are tagged with the
// source index (cancellation and Close sentinels pass through
// untouched — Close compares errPipelineClosed by identity). Under
// continue-on-source-failure a tagged failure is confined to this
// source: its terminal status is recorded per source, the decoder
// exits, and the run fails only if no source is left.
func (p *MultiPipeline) decode(i int, src Source, w int) {
	defer p.wg.Done()
	fail := func(err error) {
		if err == errPipelineClosed || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			p.fail(err)
			return
		}
		err = fmt.Errorf("source %d: %w", i, err)
		if p.cfg.continueOnSourceFailure {
			p.perSource[i].setTerminal(err)
			if int(p.failed.Add(1)) == len(p.perSource) {
				p.fail(fmt.Errorf("stream: all %d sources failed; last: %w", len(p.perSource), err))
			}
			return
		}
		p.fail(err)
	}
	send := func(b []graph.Edge) bool { return sendOrQuit(p.ctx, p.quit, p.out, b, fail) }
	fill := budgetedFill(sourceFill(src), p.cfg.maxBadRecords, &p.perSource[i])
	decodeLoop(p.ctx, p.quit, p.recycle, w, fill, send,
		[]*pipeProgress{&p.pipeProgress, &p.perSource[i]}, fail)
}

// Next returns the next decoded batch from whichever source produced one.
// It returns io.EOF after every source's last batch, the first decoder
// error if any decoding failed, or ctx.Err() if the pipeline's context
// was cancelled. The returned slice is owned by the caller until passed
// to Recycle.
func (p *MultiPipeline) Next() ([]graph.Edge, error) {
	b, ok := <-p.out
	if !ok {
		if p.err != nil && p.err != errPipelineClosed {
			return nil, p.err
		}
		return nil, io.EOF
	}
	return b, nil
}

// Recycle returns a batch obtained from Next to the shared ring so any
// decoder can refill it. The caller must not touch the slice afterwards.
func (p *MultiPipeline) Recycle(b []graph.Edge) {
	if cap(b) == 0 {
		return
	}
	select {
	case p.recycle <- b[:cap(b)]:
	default:
		// Foreign or duplicate buffer with the ring already full; drop it
		// rather than block.
	}
}

// Stats returns a snapshot of the merged pipeline's progress. Edges and
// Batches count deliveries across all sources; DecodeSeconds is the sum
// of the decoder goroutines' time in Next/Fill — with several sources it
// is aggregate decode cost, and can exceed wall time when decoders run
// concurrently. BadRecords sums the per-source skip counts; samples and
// terminal errors stay per source (SourceStats).
func (p *MultiPipeline) Stats() PipelineStats {
	st := p.snapshot()
	for i := range p.perSource {
		st.BadRecords += p.perSource[i].badRecords.Load()
	}
	return st
}

// SourceStats returns per-source progress snapshots, indexed like the
// srcs argument of NewMultiPipeline: each source's edges and batches
// delivered and its decoder's time in Next/Fill. Summing Edges across
// sources equals the aggregate Stats().Edges; DecodeSeconds per source
// sums to the aggregate decode figure.
func (p *MultiPipeline) SourceStats() []PipelineStats {
	out := make([]PipelineStats, len(p.perSource))
	for i := range p.perSource {
		out[i] = p.perSource[i].snapshot()
	}
	return out
}

// Close stops every decoder, waits for all of them to exit, and returns
// the first terminal error, if any. A clean end of all streams,
// shutdown via Close itself, and repeated calls return nil; a context
// cancellation returns the context's error. Close is safe whether or not
// the pipeline was drained.
func (p *MultiPipeline) Close() error {
	p.closeOnce.Do(func() {
		p.fail(errPipelineClosed)
		// Unblock decoders parked on a full out channel and wait for the
		// closer goroutine: out closes only after all decoders exit.
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
func (p *MultiPipeline) Run(fn func(batch []graph.Edge) error) error { return runPipe(p, fn) }

// Drain feeds every merged batch to sink like Pipeline.Drain, returning
// the number of edges the sink absorbed.
func (p *MultiPipeline) Drain(sink Sink) (uint64, error) { return drainPipe(p, sink) }
