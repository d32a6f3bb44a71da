package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stats"
)

// Counter runs r independent neighborhood-sampling estimators over one
// edge stream and aggregates their estimates. It supports both per-edge
// processing (Algorithm 1, O(r) per edge) and bulk processing
// (Section 3.3, O(r+w) per batch of w edges); the two produce identically
// distributed states.
//
// The same estimator states serve three quantities at once: the triangle
// count τ (Lemma 3.2), the wedge count ζ (Lemma 3.10), and therefore the
// transitivity coefficient κ = 3τ/ζ (Section 3.5).
//
// Mutation (Add/AddBatch) belongs to a single owner goroutine; the
// Estimate* methods and Snapshot read an atomically-published immutable
// snapshot and are safe to call concurrently with that owner. Methods
// that expose raw estimator state (TriangleEstimates,
// EstimateTrianglesMedianOfMeans, Estimators, Edges, WriteTo) remain
// owner-only.
type Counter struct {
	ests []Estimator
	m    uint64
	rng  *randx.Source

	// snap is the immutable estimate snapshot published after every
	// completed mutation; the concurrent-read half of the counter.
	snap atomic.Pointer[EstimateSnapshot]

	// useSkip selects the geometric-gap implementation of bulk Step 1
	// (the Section 4 level-1 optimization). Statistically equivalent to
	// the direct per-estimator coin; cheaper once m ≫ w.
	useSkip bool

	// idx is the index of the estimators' level-1 endpoints that
	// AddBatch keeps across batches (scratch.go). A fresh or restored
	// counter has not built it yet, and Add leaves it stale; the next
	// AddBatch rebuilds it.
	idx batchIndex

	// stats sums the AddBatch calls' phase times and filter counts
	// (BatchStats).
	stats BatchStats
}

// Option configures a Counter.
type Option func(*Counter)

// WithoutLevel1Skip disables the geometric-skip optimization for bulk
// Step 1, forcing one randInt per estimator per batch. Used by the
// ablation benchmarks.
func WithoutLevel1Skip() Option {
	return func(c *Counter) { c.useSkip = false }
}

// NewCounter returns a Counter with r estimators seeded from seed.
func NewCounter(r int, seed uint64, opts ...Option) *Counter {
	if r < 1 {
		panic(fmt.Sprintf("core: NewCounter needs r >= 1, got %d", r))
	}
	c := &Counter{
		ests:    make([]Estimator, r),
		rng:     randx.New(seed),
		useSkip: true,
	}
	for _, o := range opts {
		o(c)
	}
	c.publish()
	return c
}

// NumEstimators returns r.
func (c *Counter) NumEstimators() int { return len(c.ests) }

// Edges returns the number of stream edges observed so far.
func (c *Counter) Edges() uint64 { return c.m }

// Add processes a single stream edge through every estimator
// (Algorithm 1). Cost O(r); prefer AddBatch for long streams.
func (c *Counter) Add(e graph.Edge) {
	c.m++
	c.idx.stale = true // r1s change outside AddBatch
	for i := range c.ests {
		c.ests[i].process(e, c.m, c.rng)
	}
	c.publish()
}

// EstimateTriangles returns the average of the per-estimator unbiased
// estimates, the aggregation of Theorem 3.3. It reads the published
// snapshot, so it is safe to call while another goroutine ingests.
func (c *Counter) EstimateTriangles() float64 {
	return c.snap.Load().Triangles()
}

// EstimateTrianglesMedianOfMeans aggregates with the median of `groups`
// group means, the aggregation of Theorem 3.4 whose space bound depends
// on the tangle coefficient instead of Δ.
func (c *Counter) EstimateTrianglesMedianOfMeans(groups int) float64 {
	xs := make([]float64, len(c.ests))
	for i := range c.ests {
		xs[i] = c.ests[i].TriangleEstimate(c.m)
	}
	return stats.MedianOfMeans(xs, groups)
}

// TriangleEstimates returns the raw per-estimator estimates (for
// diagnostics and custom aggregation).
func (c *Counter) TriangleEstimates() []float64 {
	xs := make([]float64, len(c.ests))
	for i := range c.ests {
		xs[i] = c.ests[i].TriangleEstimate(c.m)
	}
	return xs
}

// EstimateWedges returns the average of the ζ̃ = c·m estimates
// (Lemma 3.10 / Lemma 3.11). Snapshot-backed like EstimateTriangles.
func (c *Counter) EstimateWedges() float64 {
	return c.snap.Load().Wedges()
}

// EstimateTransitivity returns κ̂ = 3·τ̂/ζ̂ (Theorem 3.12), or 0 when the
// wedge estimate is 0. Both quantities come from one snapshot, so the
// ratio is always internally consistent even under concurrent ingest.
func (c *Counter) EstimateTransitivity() float64 {
	return c.snap.Load().Transitivity()
}

// Estimators exposes the estimator states (read-only by convention);
// used by the triangle sampler and by white-box tests.
func (c *Counter) Estimators() []Estimator { return c.ests }

// SufficientEstimators returns the Theorem 3.3 bound
// r >= (6/ε²)·(mΔ/τ)·ln(2/δ) on the number of estimators that guarantees
// an (ε,δ)-approximation, given graph parameters. The paper's experiments
// show this is conservative in practice (Section 4.4).
func SufficientEstimators(eps, delta float64, m, maxDeg, tau uint64) float64 {
	if tau == 0 || eps <= 0 || delta <= 0 || delta >= 1 {
		return 0
	}
	return 6 / (eps * eps) * float64(m) * float64(maxDeg) / float64(tau) * math.Log(2/delta)
}

// ErrorBound inverts SufficientEstimators: the ε guaranteed (at
// confidence 1-δ) by r estimators on a graph with the given parameters —
// the "bound" curves of Figure 5 (right).
func ErrorBound(r int, delta float64, m, maxDeg, tau uint64) float64 {
	if tau == 0 || r <= 0 || delta <= 0 || delta >= 1 {
		return 0
	}
	return math.Sqrt(6 * float64(m) * float64(maxDeg) / float64(tau) * math.Log(2/delta) / float64(r))
}
