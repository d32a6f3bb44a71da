package streamtri

import (
	"context"

	"streamtri/internal/core"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

// TriangleSampler maintains the state needed to draw uniform random
// triangles from an edge stream (Section 3.4 of the paper): r
// neighborhood-sampling estimators plus an exact degree tracker supplying
// the Δ used by the unifTri acceptance step.
//
// By Theorem 3.8, sampling k triangles succeeds with probability at least
// 1-δ when r ≥ 4·m·k·Δ·ln(e/δ)/τ.
type TriangleSampler struct {
	// ws is a named field, not an embedded one, so the sampler does not
	// take on the intake's WriteTo, Snapshot or Flush: a checkpoint of
	// the estimators alone would drop the degree tracker.
	ws  wholeStream[samplerEngine]
	rng *randx.Source
}

// samplerEngine feeds every edge to both halves of a TriangleSampler,
// the estimators and the degree tracker, at the same time.
type samplerEngine struct {
	*core.Counter
	deg *stream.DegreeTracker
}

func (s samplerEngine) Add(e Edge) {
	s.deg.Add(e)
	s.Counter.Add(e)
}

func (s samplerEngine) AddBatch(batch []Edge) {
	s.deg.AddBatch(batch)
	s.Counter.AddBatch(batch)
}

// NewTriangleSampler returns a TriangleSampler with r estimator copies.
func NewTriangleSampler(r int, opts ...Option) *TriangleSampler {
	cfg := buildConfig(r, opts)
	return &TriangleSampler{
		ws:  newWholeStream(samplerEngine{core.NewCounter(r, cfg.seed), stream.NewDegreeTracker()}, cfg),
		rng: randx.Split(cfg.seed, 0xA11CE),
	}
}

// Add appends one stream edge.
func (s *TriangleSampler) Add(e Edge) { s.ws.Add(e) }

// AddBatch appends a batch of stream edges.
func (s *TriangleSampler) AddBatch(batch []Edge) { s.ws.AddBatch(batch) }

// Edges returns the number of edges added.
func (s *TriangleSampler) Edges() uint64 { return s.ws.Edges() }

// MaxDegree returns the exact maximum degree seen so far. The degree
// tracker sees an edge when the estimators do, so MaxDegree processes
// buffered edges first, as Sample and EstimateTriangles do.
func (s *TriangleSampler) MaxDegree() uint64 {
	s.ws.Flush()
	return s.ws.eng.deg.MaxDegree()
}

// Sample returns k triangles drawn uniformly at random (with replacement)
// from the triangles of the streamed graph. ok is false if fewer than k
// estimator copies passed the acceptance test; the returned slice then
// holds the accepted samples (possibly empty).
//
// Each call is an independent rejection experiment over the current
// state, so repeated calls after the same stream yield fresh randomness.
func (s *TriangleSampler) Sample(k int) (tris []Triangle, ok bool) {
	s.ws.Flush()
	res := core.SampleTriangles(s.ws.eng.Counter, k, s.ws.eng.deg.MaxDegree(), s.rng)
	return res.Triangles, res.OK
}

// EstimateTriangles exposes the triangle-count estimate of the underlying
// estimators, so one pass can both count and sample.
func (s *TriangleSampler) EstimateTriangles() float64 { return s.ws.EstimateTriangles() }

// CountStream consumes src to exhaustion, decoding batches on a
// dedicated goroutine (decode overlaps the sampler's processing). The
// degree tracker still grows with the number of distinct vertices — the
// Δ needed by the Theorem 3.8 acceptance step is inherently stateful —
// but no edge list is ever materialized.
func (s *TriangleSampler) CountStream(ctx context.Context, src Source) (StreamStats, error) {
	return s.ws.CountStream(ctx, src)
}

// CountStreams is the multi-source CountStream: each source decodes on
// its own goroutine and the block merge interleaves them. See
// TriangleCounter.CountStreams for the ordering and determinism
// contract.
func (s *TriangleSampler) CountStreams(ctx context.Context, srcs ...Source) (StreamStats, error) {
	return s.ws.CountStreams(ctx, srcs...)
}
