package streamtri

import (
	"context"

	"streamtri/internal/window"
)

// SlidingWindowCounter estimates the number of triangles among the w most
// recent stream edges (Section 5.2, Theorem 5.8). Each of its r
// estimators keeps a chain of candidate level-1 edges, of expected length
// below 2 whatever w is, so the sample stays uniform as old edges expire.
type SlidingWindowCounter struct {
	c     *window.Counter
	w     int
	depth int
	ing   ingest
}

// NewSlidingWindowCounter returns a counter over windows of the last w
// edges with r estimators.
func NewSlidingWindowCounter(r int, w uint64, opts ...Option) *SlidingWindowCounter {
	cfg := buildConfig(r, opts)
	return newSlidingWindow(window.NewCounter(r, w, cfg.seed), cfg)
}

func newSlidingWindow(c *window.Counter, cfg config) *SlidingWindowCounter {
	return &SlidingWindowCounter{c: c, w: cfg.batchSize, depth: cfg.pipeDepth, ing: cfg.ing}
}

// Add appends one stream edge.
func (s *SlidingWindowCounter) Add(e Edge) { s.c.Add(e) }

// AddBatch appends a batch of stream edges.
func (s *SlidingWindowCounter) AddBatch(batch []Edge) { s.c.AddBatch(batch) }

// CountStream consumes src to exhaustion, decoding batches on a
// dedicated goroutine so I/O+parsing overlaps the window updates, in
// constant memory — the window state itself is the only thing that
// grows, and only to O(r). The windowed estimator is inherently
// order-sensitive (the window is defined by arrival sequence), so the
// multi-source variant, CountStreams, requires timestamped sources: the
// block round-robin that merges plain sources for the whole-stream
// counters would make the window follow the file layout, not time.
func (s *SlidingWindowCounter) CountStream(ctx context.Context, src Source) (StreamStats, error) {
	return countStream(ctx, src, s.w, s.depth, s.ing, s.c)
}

// CountStreams consumes several timestamped sources (typically one per
// temporal export file) to exhaustion, merging them into a single
// deterministic stream before the window sees any edge: each source
// decodes on its own goroutine into blocks of records, and a k-way
// loser-tree merge re-sequences them by per-edge timestamp — smallest
// first, ties broken by source index, then intra-file order.
// The merged arrival sequence, and therefore the window contents and
// the estimate, is a pure function of the inputs and the seed, so runs
// are bit-for-bit reproducible for any scheduler interleaving.
// Sources must individually be timestamp-nondecreasing for the merged
// stream to be globally timestamp-ordered (SNAP temporal exports are);
// the determinism guarantee holds either way. On error (the first
// source failure wins, even under WithContinueOnSourceFailure; ctx
// cancellation included) the counter remains valid and reflects exactly
// the edges reported in StreamStats, whose PerSource field attributes
// edges and decode time to each input.
func (s *SlidingWindowCounter) CountStreams(ctx context.Context, srcs ...TimestampedSource) (StreamStats, error) {
	if len(srcs) == 0 {
		return StreamStats{}, nil
	}
	return countOrderedStreams(ctx, srcs, s.w, s.ing, s.c)
}

// WindowEdges returns the number of edges currently inside the window.
func (s *SlidingWindowCounter) WindowEdges() uint64 { return s.c.WindowEdges() }

// StreamLength returns the total number of edges processed so far; the
// window covers the most recent WindowEdges() of them.
func (s *SlidingWindowCounter) StreamLength() uint64 { return s.c.StreamLength() }

// EstimateTriangles returns the estimated triangle count of the window
// graph.
func (s *SlidingWindowCounter) EstimateTriangles() float64 { return s.c.EstimateTriangles() }

// MeanChainLength reports the average per-estimator chain length — the
// per-estimator space factor, an expected e−1 ≈ 1.72 once the window has
// filled, for large w; exposed for diagnostics.
func (s *SlidingWindowCounter) MeanChainLength() float64 { return s.c.MeanChainLength() }
