package streamtri

import "streamtri/internal/core"

// ParallelTriangleCounter is a TriangleCounter whose estimators are split
// across p shards — the partition the paper's conclusion points to for
// parallelization. Estimators are mutually independent, so sharding
// leaves the estimate distribution unchanged. p fixes each shard's
// derived seed, so the estimates and checkpoints depend on it, but it is
// not a thread count: the shards run one after another in the caller's
// goroutine. Every shard adds its queries to one batch index, so each
// batch is streamed past the estimators' queries once, not once per
// shard.
//
// Add buffers edges and processes them in batches internally; call Flush
// (or any Estimate method, which flushes first) to force processing.
type ParallelTriangleCounter struct {
	c     *core.ShardedCounter
	buf   []Edge
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
	t.buf = append(t.buf, e)
	if len(t.buf) >= t.w {
		t.Flush()
	}
	t.added++
}

// AddBatch appends a batch of stream edges, processing buffered edges
// first so stream order is preserved. The edge count is advanced only
// after the batch has been processed.
func (t *ParallelTriangleCounter) AddBatch(batch []Edge) {
	t.Flush()
	t.c.AddBatch(batch)
	t.added += uint64(len(batch))
}

// Flush processes any buffered edges immediately.
func (t *ParallelTriangleCounter) Flush() {
	if len(t.buf) > 0 {
		t.c.AddBatch(t.buf)
		t.buf = t.buf[:0]
	}
}

// Close flushes buffered edges. The counter holds no goroutine or other
// resource, so calling Close is optional and the counter remains usable
// afterwards.
func (t *ParallelTriangleCounter) Close() { t.Flush() }

// Edges returns the number of edges added, including edges still
// buffered; estimates incorporate them because every estimate method
// flushes first.
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
