package streamtri

import (
	"io"

	"streamtri/internal/core"
	"streamtri/internal/exact"
	"streamtri/internal/graph"
	"streamtri/internal/stream"
)

// NodeID identifies a vertex.
type NodeID = graph.NodeID

// Edge is an undirected edge; streams of Edges are the library's input.
type Edge = graph.Edge

// Triangle is a set of three mutually adjacent vertices (sorted).
type Triangle = graph.Triangle

// config carries the options shared by the public constructors.
type config struct {
	seed      uint64
	batchSize int // 0 = derived from r
	pipeDepth int // 0 = stream.DefaultPipelineDepth
	ing       ingest
}

// ingest is the slice of config the CountStream/CountStreams methods
// carry into the pipelines: the robustness knobs for dirty and
// out-of-order input (see doc.go, "Dirty and out-of-order input").
type ingest struct {
	maxBad     int
	isolate    bool
	watermark  bool
	lateness   int64
	latePolicy LatePolicy
	onLate     func(TimestampedEdge)
}

// pipeOpts converts the ingest knobs to stream-layer options. multi
// passes the continue-on-source-failure policy on; only the whole-stream
// multi-source runs set it, so SlidingWindowCounter.CountStreams stays
// fail-fast (see WithContinueOnSourceFailure).
func (g ingest) pipeOpts(multi bool) []stream.PipeOption {
	var opts []stream.PipeOption
	if g.maxBad > 0 {
		opts = append(opts, stream.WithMaxBadRecords(g.maxBad))
	}
	if multi && g.isolate {
		opts = append(opts, stream.WithContinueOnSourceFailure())
	}
	return opts
}

// Option configures a counter or sampler.
type Option func(*config)

// WithSeed fixes the random seed (default 1). Every component is fully
// deterministic given its seed.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithBatchSize sets the internal batch size w for bulk processing.
// The default is w = 8·r, the paper's setting; processing a stream of m
// edges then costs O(m + r) total time (Theorem 3.5). At w = 1,
// TriangleCounter.Add and TriangleSampler.Add run Algorithm 1 on each
// edge as it arrives. AddBatch still takes the bulk path on the batch it
// is given, CountStream on one-edge batches, and the deprecated
// ParallelTriangleCounter takes it at every w; the two paths reach
// identically distributed states, not identical ones.
func WithBatchSize(w int) Option {
	return func(c *config) { c.batchSize = w }
}

// WithPipelineDepth sets the number of batch buffers circulating in the
// single-source CountStream decode pipeline (default
// stream.DefaultPipelineDepth). Larger depths absorb burstier
// decode/process speed mismatches at the cost of depth×w edges of buffer
// memory; 2 is the minimum that still overlaps decoding with processing.
// CountStreams over several sources ignores it: the merge holds a fixed
// few blocks per source, not a ring of w-edge buffers.
func WithPipelineDepth(depth int) Option {
	return func(c *config) { c.pipeDepth = depth }
}

// WithDecodeErrorPolicy lets CountStream/CountStreams skip up to
// maxBadRecords malformed records PER SOURCE — unparseable text lines,
// truncated trailing binary records — instead of failing the run on the
// first one. Skips are counted (StreamStats.BadRecords, per source in
// StreamStats.PerSource) and the first few error messages are retained
// in SourceStats.BadRecordSamples for diagnostics; exceeding the budget
// fails the run with those samples in the error. I/O failures and
// format/header mismatches are never skippable. maxBadRecords <= 0
// keeps the default fail-on-first behavior.
func WithDecodeErrorPolicy(maxBadRecords int) Option {
	return func(c *config) { c.ing.maxBad = maxBadRecords }
}

// WithContinueOnSourceFailure makes CountStreams on the whole-stream
// counters abandon a source that dies mid-stream (I/O error, decode
// failure past any budget) instead of aborting the whole run: the edges
// it delivered stay counted, its terminal error is recorded in its
// StreamStats.PerSource entry (SourceStats.Err), the surviving sources
// run to completion, and the call returns nil error unless every source
// failed. It does not apply to SlidingWindowCounter.CountStreams, which
// stays fail-fast: its window is defined by the complete
// timestamp-ordered sequence, and completing without a dead source's
// remaining edges would silently compute a wrong window estimate rather
// than fail.
func WithContinueOnSourceFailure() Option {
	return func(c *config) { c.ing.isolate = true }
}

// WithLateness enables the bounded-lateness watermark stage on
// SlidingWindowCounter.CountStreams: each timestamped source is
// buffered and re-sequenced so that any edge arriving up to lateness
// timestamp units after a later-stamped edge is still merged in
// correct timestamp order — unsorted sources become a supported
// scenario instead of silent garbage. Edges displaced by more than
// lateness are "late" and handled by the late-edge policy
// (WithLatePolicy; default LateDrop). lateness = 0 enables the stage
// as a pure out-of-order filter: nothing is reordered, every
// out-of-order edge is late. Memory cost is one buffered edge per edge
// within lateness of the newest timestamp, per source.
func WithLateness(lateness int64) Option {
	return func(c *config) { c.ing.watermark, c.ing.lateness = true, lateness }
}

// WithLatePolicy sets what the watermark stage does with late edges:
// LateDrop discards them silently, LateCount discards and counts them
// (StreamStats.LateEdges), LateSideChannel additionally hands each one
// to the WithLateSideChannel callback. Only meaningful together with
// WithLateness.
func WithLatePolicy(p LatePolicy) Option {
	return func(c *config) { c.ing.latePolicy = p }
}

// WithLateSideChannel sets the late-edge policy to LateSideChannel and
// registers fn to receive every late edge in arrival order — a
// dead-letter hook. fn is called from decoder goroutines (one per
// source) and must be safe for concurrent use when there are several
// sources.
func WithLateSideChannel(fn func(TimestampedEdge)) Option {
	return func(c *config) { c.ing.latePolicy, c.ing.onLate = LateSideChannel, fn }
}

func buildConfig(r int, opts []Option) config {
	cfg := config{seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.batchSize <= 0 {
		cfg.batchSize = 8 * r
		const maxDefaultBatch = 1 << 23
		if cfg.batchSize > maxDefaultBatch {
			cfg.batchSize = maxDefaultBatch
		}
	}
	return cfg
}

// engine is what the whole-stream intake calls on the estimators behind
// it: *core.Counter under TriangleCounter and ParallelTriangleCounter,
// and samplerEngine under TriangleSampler.
type engine interface {
	Add(Edge)
	AddBatch([]Edge)
	Snapshot() *core.EstimateSnapshot
	EstimateTrianglesMedianOfMeans(groups int) float64
	WriteTo(io.Writer) (int64, error)
}

// wholeStream is the intake the three whole-stream types share: it
// buffers added edges into batches of w, hands batches and decoded
// streams to its engine in stream order, and counts the edges it was
// given.
type wholeStream[E engine] struct {
	eng   E
	buf   []Edge
	w     int
	depth int
	ing   ingest
	added uint64
}

// newWholeStream puts the intake in front of eng, which starts at its
// stream position: 0, or a restored checkpoint's.
func newWholeStream[E engine](eng E, cfg config) wholeStream[E] {
	return wholeStream[E]{eng: eng, w: cfg.batchSize, depth: cfg.pipeDepth, ing: cfg.ing, added: eng.Snapshot().Edges()}
}

// Add appends one stream edge (amortized O(1 + r/w) time). At w = 1 it
// runs Algorithm 1 on the edge at once; otherwise it buffers the edge
// and absorbs each full buffer through the bulk path. AddBatch and
// CountStream take the bulk path at every w, so at w = 1 a stream fed
// through Add reaches a different state than the same stream fed
// through AddBatch, with the same distribution.
func (t *wholeStream[E]) Add(e Edge) {
	if t.w == 1 {
		t.eng.Add(e)
		t.added++
		return
	}
	t.buf = append(t.buf, e)
	if len(t.buf) >= t.w {
		t.Flush()
	}
	t.added++
}

// AddBatch appends a batch of stream edges, processing buffered edges
// first so stream order is preserved. The edge count is advanced only
// after the batch has been processed.
func (t *wholeStream[E]) AddBatch(batch []Edge) {
	t.Flush()
	t.eng.AddBatch(batch)
	t.added += uint64(len(batch))
}

// Flush processes any buffered edges immediately.
func (t *wholeStream[E]) Flush() {
	if len(t.buf) > 0 {
		t.eng.AddBatch(t.buf)
		t.buf = t.buf[:0]
	}
}

// Edges returns the number of edges added so far, including edges still
// buffered; estimates incorporate them because every Estimate method
// flushes first.
func (t *wholeStream[E]) Edges() uint64 { return t.added }

// EstimateTriangles returns the estimate τ̂ as the mean of the
// per-estimator unbiased estimates (Theorem 3.3).
func (t *wholeStream[E]) EstimateTriangles() float64 {
	t.Flush()
	return t.eng.Snapshot().Triangles()
}

// EstimateTrianglesMedianOfMeans returns τ̂ aggregated as a median of
// `groups` group means (Theorem 3.4); more robust on streams with a large
// tangle coefficient.
func (t *wholeStream[E]) EstimateTrianglesMedianOfMeans(groups int) float64 {
	t.Flush()
	return t.eng.EstimateTrianglesMedianOfMeans(groups)
}

// EstimateWedges returns the estimate ζ̂ of the number of connected
// vertex triples (Lemma 3.11).
func (t *wholeStream[E]) EstimateWedges() float64 {
	t.Flush()
	return t.eng.Snapshot().Wedges()
}

// EstimateTransitivity returns κ̂ = 3τ̂/ζ̂ (Theorem 3.12).
func (t *wholeStream[E]) EstimateTransitivity() float64 {
	t.Flush()
	return t.eng.Snapshot().Transitivity()
}

// TriangleCounter maintains approximate triangle, wedge, and transitivity
// statistics of an edge stream using r neighborhood-sampling estimators
// (Sections 3.1–3.3 and 3.5 of the paper). Accuracy grows with r: the
// sufficient condition of Theorem 3.3 is r ≥ (6/ε²)(mΔ/τ)ln(2/δ), and in
// practice far fewer estimators suffice (Section 4).
//
// Add buffers edges and processes them in batches internally; call Flush
// (or any Estimate method, which flushes first) to force processing.
type TriangleCounter struct {
	wholeStream[*core.Counter]
}

// NewTriangleCounter returns a TriangleCounter with r estimators.
func NewTriangleCounter(r int, opts ...Option) *TriangleCounter {
	cfg := buildConfig(r, opts)
	return &TriangleCounter{newWholeStream(core.NewCounter(r, cfg.seed), cfg)}
}

// NumEstimators returns r.
func (t *TriangleCounter) NumEstimators() int { return t.eng.NumEstimators() }

// TheoreticalEstimators returns the Theorem 3.3 sufficient estimator
// count for an (ε,δ)-approximation on a graph with the given parameters.
func TheoreticalEstimators(eps, delta float64, m, maxDeg, tau uint64) float64 {
	return core.SufficientEstimators(eps, delta, m, maxDeg, tau)
}

// TheoreticalErrorBound returns the ε guaranteed at confidence 1-δ by r
// estimators on a graph with the given parameters (Theorem 3.3 inverted).
func TheoreticalErrorBound(r int, delta float64, m, maxDeg, tau uint64) float64 {
	return core.ErrorBound(r, delta, m, maxDeg, tau)
}

// ExactTriangles counts triangles exactly by materializing the graph.
// It is the offline ground truth used in tests and experiments; it needs
// O(n + m) memory, unlike the streaming counters.
func ExactTriangles(edges []Edge) (uint64, error) {
	g, err := graph.FromEdges(edges)
	if err != nil {
		return 0, err
	}
	return exact.Triangles(g), nil
}

// ExactTransitivity computes κ(G) exactly.
func ExactTransitivity(edges []Edge) (float64, error) {
	g, err := graph.FromEdges(edges)
	if err != nil {
		return 0, err
	}
	return exact.Transitivity(g), nil
}

// ExactCliques4 counts 4-cliques exactly.
func ExactCliques4(edges []Edge) (uint64, error) {
	g, err := graph.FromEdges(edges)
	if err != nil {
		return 0, err
	}
	return exact.Cliques4(g), nil
}

// ReadEdgeList parses a SNAP-style whitespace-separated edge list.
// Comment lines start with '#' or '%'; self loops are dropped. With dedup
// true, duplicate undirected edges are dropped too, which guarantees the
// simple-stream precondition of the counters.
func ReadEdgeList(r io.Reader, dedup bool) ([]Edge, error) {
	return stream.ReadEdgeList(r, dedup)
}

// WriteEdgeList writes edges as "u\tv" lines.
func WriteEdgeList(w io.Writer, edges []Edge) error {
	return stream.WriteEdgeList(w, edges)
}
