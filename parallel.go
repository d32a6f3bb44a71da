package streamtri

import "streamtri/internal/core"

// ParallelTriangleCounter is a TriangleCounter whose estimators are split
// across p shards processed by a persistent pool of p worker goroutines —
// the parallelization direction the paper's conclusion points to.
// Estimators are mutually independent, so sharding leaves the estimate
// distribution unchanged. Shards split only the per-estimator work: each
// batch's index (interning, degrees, the batch-edge table), the part of
// a batch's cost that grows with its size, is built once and read by
// every shard.
//
// Add fills one of two internal buffers; a full buffer is handed to the
// shard pool asynchronously while the other buffer keeps accepting edges
// (double buffering), so buffered edges are never copied and edge intake
// overlaps shard processing. Estimate methods flush and wait first, so
// results always reflect every added edge.
type ParallelTriangleCounter struct {
	c *core.ShardedCounter
	// bufs are the two intake buffers; cur indexes the one being filled.
	// The other one may be in flight inside the shard pool.
	bufs  [2][]Edge
	cur   int
	w     int
	depth int
	ing   ingest
	added uint64
}

// NewParallelTriangleCounter returns a counter with r estimators split
// across p shards (1 <= p <= r).
func NewParallelTriangleCounter(r, p int, opts ...Option) *ParallelTriangleCounter {
	cfg := buildConfig(r, opts)
	return &ParallelTriangleCounter{
		c:     core.NewShardedCounter(r, p, cfg.seed),
		w:     cfg.batchSize,
		depth: cfg.pipeDepth,
		ing:   cfg.ing,
	}
}

// Add appends one stream edge.
func (t *ParallelTriangleCounter) Add(e Edge) {
	t.bufs[t.cur] = append(t.bufs[t.cur], e)
	if len(t.bufs[t.cur]) >= t.w {
		t.dispatch()
	}
	t.added++
}

// dispatch hands the current buffer to the shard pool asynchronously and
// swaps intake to the other buffer. AddBatchAsync waits for the previous
// in-flight batch first, so the buffer we are about to refill is
// guaranteed to be out of the workers' hands.
func (t *ParallelTriangleCounter) dispatch() {
	if len(t.bufs[t.cur]) == 0 {
		return
	}
	t.c.AddBatchAsync(t.bufs[t.cur])
	t.cur ^= 1
	t.bufs[t.cur] = t.bufs[t.cur][:0]
}

// AddBatch appends a batch of stream edges, processing buffered edges
// first so stream order is preserved. The edge count is advanced only
// after the batch has been fully absorbed.
func (t *ParallelTriangleCounter) AddBatch(batch []Edge) {
	t.dispatch()
	t.c.AddBatch(batch)
	t.added += uint64(len(batch))
}

// Flush processes buffered edges and waits for the shard pool to finish
// them.
func (t *ParallelTriangleCounter) Flush() {
	t.dispatch()
	t.c.Barrier()
}

// Close releases the worker goroutines after flushing buffered edges. The
// counter remains usable afterwards (the pool respawns on demand); unused
// counters are also reclaimed by the garbage collector, so calling Close
// is optional.
func (t *ParallelTriangleCounter) Close() {
	t.Flush()
	t.c.Close()
}

// Edges returns the number of edges added (including edges still
// buffered or in flight; estimates always incorporate them because every
// estimate method flushes first).
func (t *ParallelTriangleCounter) Edges() uint64 { return t.added }

// NumShards returns p.
func (t *ParallelTriangleCounter) NumShards() int { return t.c.NumShards() }

// EstimateTriangles returns τ̂ (mean over all estimators, Theorem 3.3).
func (t *ParallelTriangleCounter) EstimateTriangles() float64 {
	t.Flush()
	return t.c.EstimateTriangles()
}

// EstimateTrianglesMedianOfMeans returns the Theorem 3.4 aggregation.
func (t *ParallelTriangleCounter) EstimateTrianglesMedianOfMeans(groups int) float64 {
	t.Flush()
	return t.c.EstimateTrianglesMedianOfMeans(groups)
}

// EstimateWedges returns ζ̂.
func (t *ParallelTriangleCounter) EstimateWedges() float64 {
	t.Flush()
	return t.c.EstimateWedges()
}

// EstimateTransitivity returns κ̂ = 3τ̂/ζ̂.
func (t *ParallelTriangleCounter) EstimateTransitivity() float64 {
	t.Flush()
	return t.c.EstimateTransitivity()
}
