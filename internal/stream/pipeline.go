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

// The pipeline overlaps batch decoding with batch processing: a decoder
// goroutine pulls fixed-size buffers from a small recycle ring, fills
// them from a Source (using the BatchFiller bulk path when the source
// supports it), and hands them downstream through a channel. The ring
// provides backpressure — when the consumer falls behind, the decoder
// blocks on an empty ring instead of buffering the stream — and zero
// steady-state allocation: the same `depth` buffers circulate for the
// pipeline's whole life. This is the missing link between the paper's
// separate I/O and processing times (Table 3) and the double-buffered
// AddBatchAsync handoff in internal/core: with both in place a graph
// never needs to be resident in memory to be counted.

// DefaultPipelineDepth is the recycle-ring size used when NewPipeline is
// given depth <= 0: one buffer being filled by the decoder, one in the
// hand-off channel, one being processed by the consumer, and one spare so
// neither side stalls on a momentary hiccup.
const DefaultPipelineDepth = 4

// errPipelineClosed marks a shutdown initiated by Close rather than by
// the stream ending or failing; it is internal — Close folds it to nil.
var errPipelineClosed = errors.New("stream: pipeline closed")

// BatchFiller is implemented by sources that can decode many edges at
// once (e.g. BinarySource). Fill decodes up to len(out) edges and
// returns how many it wrote; err is io.EOF at end of stream and may
// accompany a positive n.
type BatchFiller interface {
	Fill(out []graph.Edge) (int, error)
}

// AsyncSink is a batch consumer with deferred completion: AddBatchAsync
// may return before the batch is absorbed, but the next call into the
// sink — including Barrier — must absorb it first, and the caller must
// not reuse the batch until then. core.ShardedCounter is the canonical
// implementation; core.Counter satisfies it trivially (synchronous).
type AsyncSink interface {
	AddBatchAsync(batch []graph.Edge)
	Barrier()
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
// updated by the decoder goroutines (and the decode-error budget) and
// embedded by every pipeline flavor.
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

// sendOrQuit is the canonical hand-off select shared by every decoder
// and the ordered merge layer: deliver v on out, unless cancellation or
// quit wins first — in which case the terminal condition is reported
// through fail and false comes back.
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

// recvOrQuit is sendOrQuit's receive-side twin: draw a value from ch,
// unless shutdown wins first. A closed ch yields (zero, false) without
// reporting anything — closure semantics belong to the caller.
func recvOrQuit[T any](ctx context.Context, quit <-chan struct{}, ch <-chan T, fail func(error)) (v T, ok bool) {
	select {
	case v, open := <-ch:
		if !open {
			return v, false
		}
		return v, true
	case <-ctx.Done():
		fail(ctx.Err())
		return v, false
	case <-quit:
		fail(errPipelineClosed)
		return v, false
	}
}

// decodeLoop is the decoder state machine shared by the batch pipeline
// flavors — Pipeline (one instance) and MultiPipeline (one per source):
// acquire a buffer from the ring, fill it (the caller curries the bulk
// Fill path when the source supports it), send it downstream — until
// the source ends, filling fails, the context is cancelled, or quit
// closes. send delivers a filled buffer and reports false when shutdown
// won instead (having already recorded the terminal condition); other
// terminal conditions are reported through fail (errPipelineClosed for
// a quit-initiated shutdown). The return value is nil exactly for a
// clean EOF. Progress — decode time, then edges and batches on each
// successful send — is recorded into every counter in progs.
func decodeLoop[T any](ctx context.Context, quit <-chan struct{}, recycle chan []T, w int,
	fill func([]T) (int, error), send func([]T) bool, progs []*pipeProgress, fail func(error)) error {
	for {
		// Cancellation wins over available work: a select with a ready
		// recycle buffer AND a done context picks randomly, which would
		// let a short stream race past an already-cancelled context.
		select {
		case <-ctx.Done():
			fail(ctx.Err())
			return ctx.Err()
		case <-quit:
			fail(errPipelineClosed)
			return errPipelineClosed
		default:
		}
		buf, ok := recvOrQuit(ctx, quit, recycle, fail)
		if !ok {
			return errPipelineClosed
		}

		start := time.Now()
		n, err := fill(buf[:w])
		elapsed := time.Since(start).Nanoseconds()
		for _, prog := range progs {
			prog.decodeNs.Add(elapsed)
		}

		if n > 0 {
			if !send(buf[:n]) {
				return errPipelineClosed
			}
			for _, prog := range progs {
				prog.edges.Add(uint64(n))
				prog.batches.Add(1)
			}
		} else if err != nil {
			// The buffer never left this goroutine; give it back so an exit
			// doesn't shrink the ring — under source-failure isolation the
			// surviving decoders still need every buffer.
			select {
			case recycle <- buf[:cap(buf)]:
			default:
			}
		}
		if err == io.EOF {
			return nil // clean end of this source
		}
		if err != nil {
			fail(err)
			return err
		}
	}
}

// sourceFill curries a Source into decodeLoop's fill function,
// selecting the bulk BatchFiller path when the source implements it.
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

// Pipeline runs a Source's decoder on its own goroutine and delivers
// fixed-size edge batches through Next/Recycle (or the Run and Drain
// drivers). Exactly one consumer goroutine may use it; the parallelism
// is internal.
type Pipeline struct {
	w       int
	out     chan []graph.Edge
	recycle chan []graph.Edge
	quit    chan struct{}
	ctx     context.Context

	// err is the decoder's terminal error; written before out is closed,
	// so any read that observes out closed observes err too.
	err error

	quitOnce  sync.Once
	closeOnce sync.Once

	cfg pipeCfg
	pipeProgress
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
	if depth < 2 {
		depth = 2
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := &Pipeline{
		w:       w,
		out:     make(chan []graph.Edge, depth),
		recycle: make(chan []graph.Edge, depth),
		quit:    make(chan struct{}),
		ctx:     ctx,
		cfg:     buildPipeCfg(opts),
	}
	for i := 0; i < depth; i++ {
		p.recycle <- make([]graph.Edge, w)
	}
	go p.decode(src)
	return p, nil
}

// decode is the decoder goroutine: it runs the shared decodeLoop and
// always closes out on exit (after err is recorded), so the consumer
// side never blocks forever.
func (p *Pipeline) decode(src Source) {
	defer close(p.out)
	send := func(b []graph.Edge) bool { return sendOrQuit(p.ctx, p.quit, p.out, b, p.fail) }
	fill := budgetedFill(sourceFill(src), p.cfg.maxBadRecords, &p.pipeProgress)
	decodeLoop(p.ctx, p.quit, p.recycle, p.w, fill, send,
		[]*pipeProgress{&p.pipeProgress}, p.fail)
}

// fail records the decoder's terminal error. A single decoder makes the
// nil check a formality (only one fail call can happen), but it keeps
// the first-error-wins contract spelled out in one place.
func (p *Pipeline) fail(err error) {
	if p.err == nil {
		p.err = err
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

// Next returns the next decoded batch. It returns io.EOF after the last
// batch, the decoder's error if decoding failed, or ctx.Err() if the
// pipeline's context was cancelled. The returned slice is owned by the
// caller until passed to Recycle; failing to recycle is safe but costs
// the ring a buffer.
func (p *Pipeline) Next() ([]graph.Edge, error) {
	b, ok := <-p.out
	if !ok {
		if p.err != nil {
			return nil, p.err
		}
		return nil, io.EOF
	}
	return b, nil
}

// Recycle returns a batch obtained from Next to the ring so the decoder
// can refill it. The caller must not touch the slice afterwards.
func (p *Pipeline) Recycle(b []graph.Edge) {
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

// Stats returns a snapshot of the pipeline's progress. It may be called
// concurrently with the consumer loop.
func (p *Pipeline) Stats() PipelineStats { return p.snapshot() }

// Close stops the decoder, waits for it to exit, and returns the
// decoder's error, if any. A clean end of stream, cancellation via
// Close itself, and repeated calls all return nil; a context
// cancellation returns the context's error. Close is safe to call
// whether or not the pipeline was drained.
func (p *Pipeline) Close() error {
	p.closeOnce.Do(func() {
		p.quitOnce.Do(func() { close(p.quit) })
		// Unblock a decoder parked on a full out channel and wait for it
		// to exit: out is closed by the decoder as its last act.
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
// returns the first error among the decoder's, the context's, and fn's,
// and always shuts the pipeline down before returning.
func (p *Pipeline) Run(fn func(batch []graph.Edge) error) error { return runPipe(p, fn) }

// Drain feeds every batch to sink through AddBatchAsync, so decoding
// batch i+1 overlaps the sink's processing of batch i. A buffer is
// recycled only after a subsequent sink call has confirmed the workers
// are done with it (the AddBatchAsync contract), and the sink is always
// left quiescent (Barrier) on return. Drain returns the number of edges
// the sink absorbed.
func (p *Pipeline) Drain(sink AsyncSink) (uint64, error) { return drainPipe(p, sink) }

// batchPipe is the consumer-side surface shared by Pipeline and
// MultiPipeline; runPipe and drainPipe drive either through it.
type batchPipe interface {
	Next() ([]graph.Edge, error)
	Recycle([]graph.Edge)
	Close() error
}

// runPipe is the shared Run implementation.
func runPipe(p batchPipe, fn func(batch []graph.Edge) error) error {
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

// drainPipe is the shared Drain implementation (see Pipeline.Drain for
// the recycling contract).
func drainPipe(p batchPipe, sink AsyncSink) (uint64, error) {
	var inFlight []graph.Edge
	var n uint64
	for {
		b, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			sink.Barrier()
			p.Close()
			return n, err
		}
		sink.AddBatchAsync(b)
		n += uint64(len(b))
		if inFlight != nil {
			// The AddBatchAsync call above waited for the previous batch,
			// so its buffer is out of the workers' hands.
			p.Recycle(inFlight)
		}
		inFlight = b
	}
	sink.Barrier()
	if inFlight != nil {
		p.Recycle(inFlight)
	}
	return n, p.Close()
}
