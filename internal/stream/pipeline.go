package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"streamtri/internal/graph"
)

// The pipelines overlap batch decoding with batch processing. Their
// producers — one decoder goroutine for a Pipeline, one per source plus
// a merger for an OrderedMultiPipeline — draw fixed-size buffers from a
// small recycle ring, fill them, and hand them downstream through a
// channel; the consumer side, shared as pipe, is those two rings and
// the shutdown around them. The ring provides backpressure — when the
// consumer falls behind, the producer blocks on an empty ring instead
// of buffering the stream — and zero steady-state allocation: the same
// buffers circulate for the pipeline's whole life. This is the missing
// link between the paper's separate I/O and processing times (Table 3)
// and the counters in internal/core: decoding batch i+1 overlaps the
// consumer's work on batch i, and a graph never needs to be resident in
// memory to be counted.

// DefaultPipelineDepth is the recycle-ring size used when NewPipeline is
// given depth <= 0: one buffer being filled by the decoder, one in the
// hand-off channel, one being processed by the consumer, and one spare so
// neither side stalls on a momentary hiccup.
const DefaultPipelineDepth = 4

// errPipelineClosed marks a shutdown initiated by Close rather than by
// the stream ending or failing; it is internal — Close folds it to nil
// and Next to io.EOF.
var errPipelineClosed = errors.New("stream: pipeline closed")

// BatchFiller is implemented by sources that can decode many edges at
// once (e.g. BinarySource). Fill decodes up to len(out) edges and
// returns how many it wrote; err is io.EOF at end of stream and may
// accompany a positive n.
type BatchFiller interface {
	Fill(out []graph.Edge) (int, error)
}

// Sink is the batch consumer Drain feeds: AddBatch absorbs the batch
// before returning and keeps no reference to it. core.Counter and
// window.Counter implement it.
type Sink interface {
	AddBatch(batch []graph.Edge)
}

// PipelineStats is a snapshot of a pipeline's progress.
type PipelineStats struct {
	Edges         uint64  // edges delivered downstream
	Batches       uint64  // batches delivered downstream
	DecodeSeconds float64 // decoder-goroutine time spent in Next/Fill (the I/O+decode cost)

	// BadRecords counts malformed records skipped under a
	// WithMaxBadRecords budget; BadRecordSamples retains the first few of
	// their error messages for diagnostics.
	BadRecords       uint64
	BadRecordSamples []string

	// Err is this source's terminal error under
	// WithContinueOnSourceFailure — nil while the source is live or after
	// a clean EOF. Only per-source snapshots carry it.
	Err error
}

// pipeProgress is the shared progress state behind PipelineStats,
// updated by the producer goroutines (and the decode-error budget): the
// consumer side holds the aggregate, and the merge one more per source.
type pipeProgress struct {
	edges      atomic.Uint64
	batches    atomic.Uint64
	decodeNs   atomic.Int64
	badRecords atomic.Uint64

	mu         sync.Mutex
	badSamples []string
	termErr    error
}

func (s *pipeProgress) snapshot() PipelineStats {
	st := PipelineStats{
		Edges:         s.edges.Load(),
		Batches:       s.batches.Load(),
		DecodeSeconds: float64(s.decodeNs.Load()) / 1e9,
		BadRecords:    s.badRecords.Load(),
	}
	s.mu.Lock()
	if len(s.badSamples) > 0 {
		st.BadRecordSamples = append([]string(nil), s.badSamples...)
	}
	st.Err = s.termErr
	s.mu.Unlock()
	return st
}

// addBadSample retains msg if the sample cap has room.
func (s *pipeProgress) addBadSample(msg string) {
	s.mu.Lock()
	if len(s.badSamples) < maxBadSamples {
		s.badSamples = append(s.badSamples, msg)
	}
	s.mu.Unlock()
}

// badSampleSnapshot copies the retained samples.
func (s *pipeProgress) badSampleSnapshot() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.badSamples...)
}

// setTerminal records this source's terminal error (source-failure
// isolation keeps the run going, so the error must be visible in stats
// rather than from Next).
func (s *pipeProgress) setTerminal(err error) {
	s.mu.Lock()
	if s.termErr == nil {
		s.termErr = err
	}
	s.mu.Unlock()
}

// sendOrQuit is the hand-off select shared by every producer: deliver v
// on out, unless cancellation or quit wins first — in which case the
// terminal condition is reported through fail and false comes back.
func sendOrQuit[T any](ctx context.Context, quit <-chan struct{}, out chan<- T, v T, fail func(error)) bool {
	select {
	case out <- v:
		return true
	case <-ctx.Done():
		fail(ctx.Err())
		return false
	case <-quit:
		fail(errPipelineClosed)
		return false
	}
}

// sourceFill curries a Source into a fill function, selecting the bulk
// BatchFiller path when the source implements it.
func sourceFill(src Source) func([]graph.Edge) (int, error) {
	if filler, bulk := src.(BatchFiller); bulk {
		return filler.Fill
	}
	return func(buf []graph.Edge) (int, error) { return fillFromSource(src, buf) }
}

// tsSourceFill is sourceFill's timestamped twin.
func tsSourceFill(src TimestampedSource) func([]TimestampedEdge) (int, error) {
	if filler, bulk := src.(TimestampedBatchFiller); bulk {
		return filler.FillTimestamped
	}
	return func(buf []TimestampedEdge) (int, error) { return tsFillFromSource(src, buf) }
}

// pipe is the consumer side both pipelines share: the output ring of
// filled batches and the recycle ring of spent buffers, first-error-wins
// shutdown, and the Next/Recycle/Close/Run/Drain surface. Its producers
// draw buffers through acquireOut and hand them over through deliver;
// start runs them. Exactly one consumer goroutine may use it.
type pipe struct {
	out     chan []graph.Edge // filled batches, to the consumer
	recycle chan []graph.Edge // the consumer's spent buffers, back to the producer
	quit    chan struct{}
	ctx     context.Context

	// err is the first terminal error; errOnce arbitrates the race
	// between failing producers, cancellation, and Close. out is closed
	// only after every producer exits, so a consumer that observes out
	// closed observes err too.
	err       error
	errOnce   sync.Once
	quitOnce  sync.Once
	closeOnce sync.Once

	cfg          pipeCfg
	pipeProgress // batches and edges delivered to the consumer
}

// init sets up the rings, depth buffers of capacity w each.
func (p *pipe) init(ctx context.Context, w, depth int, opts []PipeOption) {
	if ctx == nil {
		ctx = context.Background()
	}
	p.out = make(chan []graph.Edge, depth)
	p.recycle = make(chan []graph.Edge, depth)
	p.quit = make(chan struct{})
	p.ctx = ctx
	p.cfg = buildPipeCfg(opts)
	for i := 0; i < depth; i++ {
		p.recycle <- make([]graph.Edge, 0, w)
	}
}

// start runs every producer on its own goroutine and closes out once
// all of them have returned, so the consumer side never blocks forever.
func (p *pipe) start(producers ...func()) {
	var wg sync.WaitGroup
	wg.Add(len(producers))
	for _, run := range producers {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	go func() {
		wg.Wait()
		close(p.out)
	}()
}

// fail records err as the pipeline's terminal error if it is the first,
// and triggers the shutdown of every producer either way.
func (p *pipe) fail(err error) {
	p.errOnce.Do(func() { p.err = err })
	p.quitOnce.Do(func() { close(p.quit) })
}

// acquireOut draws an empty buffer from the recycle ring. Cancellation
// and Close win over a ready buffer: a select with both ready picks at
// random, which would let a short stream race past an already-cancelled
// context, and a producer fill up to depth more batches after Close.
func (p *pipe) acquireOut() ([]graph.Edge, bool) {
	select {
	case <-p.ctx.Done():
		p.fail(p.ctx.Err())
		return nil, false
	case <-p.quit:
		p.fail(errPipelineClosed)
		return nil, false
	default:
	}
	select {
	case b := <-p.recycle:
		return b[:0], true
	case <-p.ctx.Done():
		p.fail(p.ctx.Err())
	case <-p.quit:
		p.fail(errPipelineClosed)
	}
	return nil, false
}

// deliver hands one filled batch to the consumer and counts it in the
// aggregate stats.
func (p *pipe) deliver(b []graph.Edge) bool {
	if !sendOrQuit(p.ctx, p.quit, p.out, b, p.fail) {
		return false
	}
	p.edges.Add(uint64(len(b)))
	p.batches.Add(1)
	return true
}

// Next returns the next batch. It returns io.EOF after the last batch
// and after Close, the first producer error if decoding failed, or
// ctx.Err() if the pipeline's context was cancelled. The returned slice
// is owned by the caller until passed to Recycle; failing to recycle is
// safe but costs the ring a buffer.
func (p *pipe) Next() ([]graph.Edge, error) {
	b, ok := <-p.out
	if !ok {
		if p.err != nil && p.err != errPipelineClosed {
			return nil, p.err
		}
		return nil, io.EOF
	}
	return b, nil
}

// Recycle returns a batch obtained from Next to the ring so a producer
// can refill it. The caller must not touch the slice afterwards.
func (p *pipe) Recycle(b []graph.Edge) {
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

// Close stops every producer, waits for all of them to exit, and
// returns the first terminal error, if any. A clean end of stream,
// shutdown via Close itself, and repeated calls return nil; a context
// cancellation returns the context's error. Close is safe whether or
// not the pipeline was drained.
func (p *pipe) Close() error {
	p.closeOnce.Do(func() {
		p.fail(errPipelineClosed)
		// Unblock producers parked on a full out channel, and wait for
		// out to close: it closes only after every producer exits.
		for range p.out {
		}
	})
	if p.err == errPipelineClosed {
		return nil
	}
	return p.err
}

// Run drives the pipeline to completion, invoking fn for every batch and
// recycling buffers automatically; fn must not retain its argument. It
// returns the first error among the producers', the context's, and
// fn's, and always shuts the pipeline down before returning.
func (p *pipe) Run(fn func(batch []graph.Edge) error) error {
	for {
		b, err := p.Next()
		if err == io.EOF {
			return p.Close()
		}
		if err != nil {
			p.Close()
			return err
		}
		if err := fn(b); err != nil {
			p.Close()
			return err
		}
		p.Recycle(b)
	}
}

// Drain feeds every batch to sink, recycling each buffer once AddBatch
// returns, and returns the number of edges the sink absorbed. Decoding
// batch i+1 overlaps the sink's work on batch i.
func (p *pipe) Drain(sink Sink) (uint64, error) {
	var n uint64
	err := p.Run(func(b []graph.Edge) error {
		sink.AddBatch(b)
		n += uint64(len(b))
		return nil
	})
	return n, err
}

// Pipeline runs a Source's decoder on its own goroutine and delivers
// fixed-size edge batches through Next/Recycle (or the Run and Drain
// drivers). Exactly one consumer goroutine may use it; the parallelism
// is internal.
type Pipeline struct {
	pipe
	w int
}

// NewPipeline starts a decoding pipeline over src with batch size w and
// a recycle ring of depth buffers (depth <= 0 selects
// DefaultPipelineDepth; values below 2 are raised to 2, the minimum for
// any decode/process overlap). Cancelling ctx stops the decoder and
// surfaces ctx.Err() from Next. The caller must eventually drain the
// pipeline to io.EOF or call Close, or the decoder goroutine leaks.
// Options: WithMaxBadRecords (WithContinueOnSourceFailure is
// meaningless with one source and ignored).
func NewPipeline(ctx context.Context, src Source, w, depth int, opts ...PipeOption) (*Pipeline, error) {
	if w <= 0 {
		return nil, fmt.Errorf("stream: pipeline batch size %d must be positive", w)
	}
	if depth <= 0 {
		depth = DefaultPipelineDepth
	}
	p := &Pipeline{w: w}
	p.init(ctx, w, max(depth, 2), opts)
	p.start(func() { p.decode(src) })
	return p, nil
}

// decode is the decoder goroutine: acquire a buffer from the ring, fill
// it, deliver it — until the source ends, filling fails, the context is
// cancelled, or Close.
func (p *Pipeline) decode(src Source) {
	fill := budgetedFill(sourceFill(src), p.cfg.maxBadRecords, &p.pipeProgress)
	for {
		buf, ok := p.acquireOut()
		if !ok {
			return
		}
		start := time.Now()
		n, err := fill(buf[:p.w])
		p.decodeNs.Add(time.Since(start).Nanoseconds())
		if n > 0 && !p.deliver(buf[:n]) {
			return
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			p.fail(err)
			return
		}
	}
}

// fillFromSource is the per-edge fallback for sources without a bulk
// Fill method.
func fillFromSource(src Source, buf []graph.Edge) (int, error) {
	for i := range buf {
		e, err := src.Next()
		if err != nil {
			return i, err
		}
		buf[i] = e
	}
	return len(buf), nil
}

// Stats returns a snapshot of the pipeline's progress. It may be called
// concurrently with the consumer loop.
func (p *Pipeline) Stats() PipelineStats { return p.snapshot() }
