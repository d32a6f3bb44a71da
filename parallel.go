package streamtri

import "streamtri/internal/core"

// ParallelTriangleCounter is a TriangleCounter whose estimators are split
// across p shards — the partition the paper's conclusion points to for
// parallelization. Estimators are mutually independent, so sharding
// leaves the estimate distribution unchanged. p fixes each shard's
// derived seed, so the estimates and checkpoints depend on it, but it is
// not a thread count: the shards run one after another in the caller's
// goroutine. The shards share one index of their estimators' level-1
// endpoints, kept across batches, so each batch is streamed past it
// once, not once per shard.
//
// Add buffers edges and processes them in batches internally; call Flush
// (or any Estimate method, which flushes first) to force processing.
type ParallelTriangleCounter struct {
	wholeStream[*core.ShardedCounter]
}

// NewParallelTriangleCounter returns a counter with r estimators split
// across p shards (1 <= p <= r).
func NewParallelTriangleCounter(r, p int, opts ...Option) *ParallelTriangleCounter {
	cfg := buildConfig(r, opts)
	return &ParallelTriangleCounter{newWholeStream(core.NewShardedCounter(r, p, cfg.seed), cfg)}
}

// Add appends one stream edge. Unlike TriangleCounter.Add it buffers at
// every w, w = 1 included: the shards absorb each full buffer through
// the bulk path.
func (t *ParallelTriangleCounter) Add(e Edge) {
	t.buf = append(t.buf, e)
	if len(t.buf) >= t.w {
		t.Flush()
	}
	t.added++
}

// Close flushes buffered edges. The counter holds no goroutine or other
// resource, so calling Close is optional and the counter remains usable
// afterwards.
func (t *ParallelTriangleCounter) Close() { t.Flush() }

// NumShards returns p.
func (t *ParallelTriangleCounter) NumShards() int { return t.eng.NumShards() }
