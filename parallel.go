package streamtri

import (
	"fmt"

	"streamtri/internal/core"
	"streamtri/internal/randx"
)

// ParallelTriangleCounter is the TriangleCounter intake over one
// counter, under the name of the counter that split its estimators into
// p shards. The shards ran one after another in the caller's goroutine
// and bought no speed, so the estimators are no longer split, and p has
// no effect. For every p the counter is seeded as shard 0 was, so a
// counter created with p = 1 reaches the states, estimates and
// checkpoint bytes it did when it had one shard, less the 20-byte shard
// envelope; with p > 1 it now equals the p = 1 counter.
// RestoreParallelTriangleCounter still reads checkpoints written with
// any p.
//
// Unlike TriangleCounter.Add, Add buffers edges at every w, w = 1
// included; call Flush (or any Estimate method, which flushes first) to
// force processing.
//
// Deprecated: Use TriangleCounter.
type ParallelTriangleCounter struct {
	wholeStream[*core.Counter]
}

// NewParallelTriangleCounter returns a counter with r estimators. p must
// satisfy 1 <= p <= r and has no other effect.
//
// Deprecated: Use NewTriangleCounter.
func NewParallelTriangleCounter(r, p int, opts ...Option) *ParallelTriangleCounter {
	if p < 1 || p > r {
		panic(fmt.Sprintf("streamtri: NewParallelTriangleCounter needs 1 <= p <= r, got r=%d p=%d", r, p))
	}
	cfg := buildConfig(r, opts)
	shard0 := randx.Split(cfg.seed, 0).Uint64N(1<<62) + 1
	return &ParallelTriangleCounter{newWholeStream(core.NewCounter(r, shard0), cfg)}
}

// Add appends one stream edge. Unlike TriangleCounter.Add it buffers at
// every w, w = 1 included: the counter absorbs each full buffer through
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

// NumShards returns 1, whatever p the counter was created or
// checkpointed with: its estimators are not split.
func (t *ParallelTriangleCounter) NumShards() int { return 1 }
