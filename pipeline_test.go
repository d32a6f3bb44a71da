package streamtri_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"streamtri"
	"streamtri/internal/gen"
	"streamtri/internal/randx"
)

// CountStream must produce bit-identical estimator state to the Add
// loop: the pipeline batches edges at exactly the same boundaries the
// intake buffer would, and the underlying counter is deterministic.
func TestCountStreamMatchesAddLoop(t *testing.T) {
	edges := syn3regStream(11)

	ref := streamtri.NewTriangleCounter(4000, streamtri.WithSeed(5))
	for _, e := range edges {
		ref.Add(e)
	}

	tc := streamtri.NewTriangleCounter(4000, streamtri.WithSeed(5))
	st, err := tc.CountStream(context.Background(), streamtri.NewSliceSource(edges))
	if err != nil {
		t.Fatal(err)
	}
	if st.Edges != uint64(len(edges)) {
		t.Fatalf("stats report %d edges, want %d", st.Edges, len(edges))
	}
	if tc.Edges() != ref.Edges() {
		t.Fatalf("Edges: %d != %d", tc.Edges(), ref.Edges())
	}
	if got, want := tc.EstimateTriangles(), ref.EstimateTriangles(); got != want {
		t.Fatalf("EstimateTriangles: %v != %v (must be bit-identical)", got, want)
	}
	if got, want := tc.EstimateWedges(), ref.EstimateWedges(); got != want {
		t.Fatalf("EstimateWedges: %v != %v", got, want)
	}
}

func TestParallelCountStreamMatchesAddLoop(t *testing.T) {
	edges := syn3regStream(12)

	ref := streamtri.NewParallelTriangleCounter(4000, 4, streamtri.WithSeed(6))
	for _, e := range edges {
		ref.Add(e)
	}

	tc := streamtri.NewParallelTriangleCounter(4000, 4, streamtri.WithSeed(6))
	st, err := tc.CountStream(context.Background(), streamtri.NewSliceSource(edges))
	if err != nil {
		t.Fatal(err)
	}
	if st.Edges != uint64(len(edges)) || st.Batches == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got, want := tc.EstimateTriangles(), ref.EstimateTriangles(); got != want {
		t.Fatalf("EstimateTriangles: %v != %v (must be bit-identical)", got, want)
	}
}

// Edges buffered through Add before CountStream must be processed ahead
// of the streamed edges, preserving stream order.
func TestCountStreamAfterAddPreservesOrder(t *testing.T) {
	edges := syn3regStream(13)
	half := len(edges) / 2

	// The reference processes the same two batches (estimator state is
	// only bit-identical when batch boundaries agree).
	ref := streamtri.NewTriangleCounter(2000, streamtri.WithSeed(7))
	ref.AddBatch(edges[:half])
	ref.AddBatch(edges[half:])

	tc := streamtri.NewTriangleCounter(2000, streamtri.WithSeed(7))
	for _, e := range edges[:half] {
		tc.Add(e)
	}
	if _, err := tc.CountStream(context.Background(), streamtri.NewSliceSource(edges[half:])); err != nil {
		t.Fatal(err)
	}
	if tc.Edges() != uint64(len(edges)) {
		t.Fatalf("Edges = %d, want %d", tc.Edges(), len(edges))
	}
	if got, want := tc.EstimateTriangles(), ref.EstimateTriangles(); got != want {
		t.Fatalf("EstimateTriangles: %v != %v", got, want)
	}
}

func TestCountStreamFromFormats(t *testing.T) {
	edges := syn3regStream(14)

	var bin bytes.Buffer
	if err := streamtri.WriteBinaryEdges(&bin, edges); err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	if err := streamtri.WriteEdgeList(&txt, edges); err != nil {
		t.Fatal(err)
	}

	ref := streamtri.NewTriangleCounter(2000, streamtri.WithSeed(9))
	ref.AddBatch(edges)
	want := ref.EstimateTriangles()

	for name, src := range map[string]streamtri.Source{
		"binary": streamtri.NewBinaryEdgeSource(&bin),
		"text":   streamtri.NewEdgeListSource(&txt),
	} {
		tc := streamtri.NewTriangleCounter(2000, streamtri.WithSeed(9))
		st, err := tc.CountStream(context.Background(), src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Edges != uint64(len(edges)) {
			t.Fatalf("%s: streamed %d of %d edges", name, st.Edges, len(edges))
		}
		// Same edges, but different batch boundaries than AddBatch
		// (one big batch): estimates agree only statistically, so just
		// demand a sane, nonzero estimate here and exactness elsewhere.
		if got := tc.EstimateTriangles(); got <= 0 {
			t.Fatalf("%s: estimate %v, want > 0 (ref %v)", name, got, want)
		}
	}
}

func TestCountStreamCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tc := streamtri.NewTriangleCounter(1000, streamtri.WithSeed(3))
	_, err := tc.CountStream(ctx, streamtri.NewSliceSource(syn3regStream(15)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The counter stays usable after a cancelled stream.
	tc.Add(streamtri.Edge{U: 1, V: 2})
	tc.Flush()
}

func TestCountStreamDecodeError(t *testing.T) {
	tc := streamtri.NewParallelTriangleCounter(1000, 2, streamtri.WithSeed(4))
	src := streamtri.NewEdgeListSource(strings.NewReader("1 2\n3 4\nnot an edge\n"))
	st, err := tc.CountStream(context.Background(), src)
	if err == nil {
		t.Fatal("want parse error")
	}
	if st.Edges != 2 || tc.Edges() != 2 {
		t.Fatalf("absorbed %d edges (stats %d), want the 2 pre-error edges", tc.Edges(), st.Edges)
	}
}

// CountStreams with one source must degenerate to CountStream exactly
// (same pipeline, same batching, bit-identical state).
func TestCountStreamsSingleSourceMatchesCountStream(t *testing.T) {
	edges := syn3regStream(21)

	ref := streamtri.NewTriangleCounter(3000, streamtri.WithSeed(17))
	if _, err := ref.CountStream(context.Background(), streamtri.NewSliceSource(edges)); err != nil {
		t.Fatal(err)
	}

	tc := streamtri.NewTriangleCounter(3000, streamtri.WithSeed(17))
	st, err := tc.CountStreams(context.Background(), streamtri.NewSliceSource(edges))
	if err != nil {
		t.Fatal(err)
	}
	if st.Edges != uint64(len(edges)) {
		t.Fatalf("streamed %d of %d edges", st.Edges, len(edges))
	}
	if got, want := tc.EstimateTriangles(), ref.EstimateTriangles(); got != want {
		t.Fatalf("EstimateTriangles: %v != %v (single-source CountStreams must be bit-identical)", got, want)
	}
}

// Multi-source ingestion must absorb the union of the inputs; the check
// is edge accounting plus a statistically sane estimate (the stream
// model is order-free).
func TestCountStreamsMergesSources(t *testing.T) {
	edges := syn3regStream(22)
	third := len(edges) / 3

	tc := streamtri.NewTriangleCounter(6000, streamtri.WithSeed(18))
	st, err := tc.CountStreams(context.Background(),
		streamtri.NewSliceSource(edges[:third]),
		streamtri.NewSliceSource(edges[third:2*third]),
		streamtri.NewSliceSource(edges[2*third:]),
	)
	if err != nil {
		t.Fatal(err)
	}
	if st.Edges != uint64(len(edges)) || tc.Edges() != uint64(len(edges)) {
		t.Fatalf("streamed %d edges (counter %d), want %d", st.Edges, tc.Edges(), len(edges))
	}
	// syn3reg has 1000 triangles; with r=6000 the estimate is loose but
	// must be in the right regime whatever the interleaving.
	if got := tc.EstimateTriangles(); got < 300 || got > 3000 {
		t.Fatalf("estimate %v, want within [300, 3000] of true 1000", got)
	}
}

// blockInterleave is the merge CountStreams performs: block j of every
// part, in part order, before any block j+1, in blocks of b edges.
func blockInterleave(parts [][]streamtri.Edge, b int) []streamtri.Edge {
	var out []streamtri.Edge
	for lo, more := 0, true; more; lo += b {
		more = false
		for _, p := range parts {
			if lo < len(p) {
				out = append(out, p[lo:min(lo+b, len(p))]...)
				more = true
			}
		}
	}
	return out
}

// Multi-source runs are deterministic: CountStreams over a slice, a
// binary and a text source gives the estimate CountStream gives over the
// round-robin interleave of their blocks of min(w, 4096) edges, bit for
// bit, on every repeat and at GOMAXPROCS 1 and 2.
func TestCountStreamsDeterministicBlockInterleave(t *testing.T) {
	const r = 200 // w = 8r = 1600, so each source spans several blocks
	edges := gen.HolmeKim(randx.New(61), 4000, 3, 0.6)
	parts := [][]streamtri.Edge{edges[:5000], edges[5000:7000], edges[7000:]}
	interleaved := blockInterleave(parts, min(8*r, 4096))
	srcs := func(t *testing.T) []streamtri.Source {
		var bin, text bytes.Buffer
		if err := streamtri.WriteBinaryEdges(&bin, parts[1]); err != nil {
			t.Fatal(err)
		}
		if err := streamtri.WriteEdgeList(&text, parts[2]); err != nil {
			t.Fatal(err)
		}
		return []streamtri.Source{
			streamtri.NewSliceSource(parts[0]),
			streamtri.NewBinaryEdgeSource(&bin),
			streamtri.NewEdgeListSource(&text),
		}
	}
	type counter interface {
		CountStream(context.Context, streamtri.Source) (streamtri.StreamStats, error)
		CountStreams(context.Context, ...streamtri.Source) (streamtri.StreamStats, error)
		EstimateTriangles() float64
	}
	kinds := map[string]func() counter{
		"flat":     func() counter { return streamtri.NewTriangleCounter(r, streamtri.WithSeed(5)) },
		"parallel": func() counter { return streamtri.NewParallelTriangleCounter(r, 2, streamtri.WithSeed(5)) },
		"sampler":  func() counter { return streamtri.NewTriangleSampler(r, streamtri.WithSeed(5)) },
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, newCounter := range kinds {
		ref := newCounter()
		if _, err := ref.CountStream(context.Background(), streamtri.NewSliceSource(interleaved)); err != nil {
			t.Fatal(err)
		}
		want := ref.EstimateTriangles()
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < 5; rep++ {
				c := newCounter()
				st, err := c.CountStreams(context.Background(), srcs(t)...)
				if err != nil {
					t.Fatal(err)
				}
				if st.Edges != uint64(len(edges)) {
					t.Fatalf("%s: streamed %d of %d edges", name, st.Edges, len(edges))
				}
				if got := c.EstimateTriangles(); got != want {
					t.Fatalf("%s, GOMAXPROCS=%d, repeat %d: estimate %v, want %v (CountStream over the block interleave)",
						name, procs, rep, got, want)
				}
			}
		}
	}
}

func TestParallelCountStreamsFromFiles(t *testing.T) {
	edges := syn3regStream(23)
	half := len(edges) / 2

	var a, b bytes.Buffer
	if err := streamtri.WriteBinaryEdges(&a, edges[:half]); err != nil {
		t.Fatal(err)
	}
	if err := streamtri.WriteEdgeList(&b, edges[half:]); err != nil {
		t.Fatal(err)
	}

	tc := streamtri.NewParallelTriangleCounter(4000, 2, streamtri.WithSeed(19))
	st, err := tc.CountStreams(context.Background(),
		streamtri.NewBinaryEdgeSource(&a),
		streamtri.NewEdgeListSource(&b),
	)
	if err != nil {
		t.Fatal(err)
	}
	if st.Edges != uint64(len(edges)) || tc.Edges() != uint64(len(edges)) {
		t.Fatalf("streamed %d edges (counter %d), want %d", st.Edges, tc.Edges(), len(edges))
	}
	if got := tc.EstimateTriangles(); got <= 0 {
		t.Fatalf("estimate %v, want > 0", got)
	}
}

// A failing source stops the merge; the counter stays valid and agrees
// with StreamStats on exactly how many edges were absorbed.
func TestCountStreamsFirstErrorWins(t *testing.T) {
	edges := syn3regStream(24)
	tc := streamtri.NewParallelTriangleCounter(1000, 2, streamtri.WithSeed(20))
	st, err := tc.CountStreams(context.Background(),
		streamtri.NewSliceSource(edges),
		streamtri.NewEdgeListSource(strings.NewReader("1 2\n3 4\nnot an edge\n")),
	)
	if err == nil {
		t.Fatal("want the text source's parse error")
	}
	if tc.Edges() != st.Edges {
		t.Fatalf("counter absorbed %d edges but stats report %d", tc.Edges(), st.Edges)
	}
	// The counter must remain usable.
	tc.Add(streamtri.Edge{U: 1, V: 2})
	tc.Flush()
}

func TestCountStreamsNoSources(t *testing.T) {
	tc := streamtri.NewTriangleCounter(100, streamtri.WithSeed(1))
	st, err := tc.CountStreams(context.Background())
	if err != nil || st.Edges != 0 {
		t.Fatalf("CountStreams() = %+v, %v; want zero stats, nil", st, err)
	}
}

// The windowed counter's pipeline entry point must be bit-identical to
// the per-edge Add loop: one source, order preserved, synchronous sink.
func TestSlidingWindowCountStream(t *testing.T) {
	edges := syn3regStream(25)

	ref := streamtri.NewSlidingWindowCounter(500, 800, streamtri.WithSeed(9))
	for _, e := range edges {
		ref.Add(e)
	}

	wc := streamtri.NewSlidingWindowCounter(500, 800, streamtri.WithSeed(9))
	st, err := wc.CountStream(context.Background(), streamtri.NewSliceSource(edges))
	if err != nil {
		t.Fatal(err)
	}
	if st.Edges != uint64(len(edges)) {
		t.Fatalf("streamed %d of %d edges", st.Edges, len(edges))
	}
	if wc.WindowEdges() != ref.WindowEdges() {
		t.Fatalf("WindowEdges %d != %d", wc.WindowEdges(), ref.WindowEdges())
	}
	if got, want := wc.EstimateTriangles(), ref.EstimateTriangles(); got != want {
		t.Fatalf("EstimateTriangles: %v != %v (must be bit-identical)", got, want)
	}
	if got, want := wc.MeanChainLength(), ref.MeanChainLength(); got != want {
		t.Fatalf("MeanChainLength: %v != %v", got, want)
	}
}

func TestSamplerCountStreams(t *testing.T) {
	edges := syn3regStream(26)
	half := len(edges) / 2
	s := streamtri.NewTriangleSampler(3000, streamtri.WithSeed(10))
	st, err := s.CountStreams(context.Background(),
		streamtri.NewSliceSource(edges[:half]),
		streamtri.NewSliceSource(edges[half:]),
	)
	if err != nil {
		t.Fatal(err)
	}
	if st.Edges != uint64(len(edges)) || s.Edges() != uint64(len(edges)) {
		t.Fatalf("streamed %d edges (sampler %d), want %d", st.Edges, s.Edges(), len(edges))
	}
	// Max degree is order-independent, so it must be exact regardless of
	// the interleaving.
	ref := streamtri.NewTriangleSampler(3000, streamtri.WithSeed(10))
	ref.AddBatch(edges)
	if s.MaxDegree() != ref.MaxDegree() {
		t.Fatalf("MaxDegree %d != %d", s.MaxDegree(), ref.MaxDegree())
	}
}

func TestSamplerCountStream(t *testing.T) {
	edges := syn3regStream(16)

	ref := streamtri.NewTriangleSampler(3000, streamtri.WithSeed(8))
	ref.AddBatch(edges)

	s := streamtri.NewTriangleSampler(3000, streamtri.WithSeed(8))
	st, err := s.CountStream(context.Background(), streamtri.NewSliceSource(edges))
	if err != nil {
		t.Fatal(err)
	}
	if st.Edges != uint64(len(edges)) || s.Edges() != uint64(len(edges)) {
		t.Fatalf("streamed %d edges (counter says %d), want %d", st.Edges, s.Edges(), len(edges))
	}
	if s.MaxDegree() != ref.MaxDegree() {
		t.Fatalf("MaxDegree %d != %d", s.MaxDegree(), ref.MaxDegree())
	}
	if got := s.EstimateTriangles(); got <= 0 {
		t.Fatalf("estimate %v, want > 0", got)
	}
}
