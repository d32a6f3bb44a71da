package streamtri_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"testing"

	"streamtri"
	"streamtri/internal/randx"
)

// Robustness-layer tests: the watermark reorder stage, decode-error
// budgets, source-failure isolation, and checkpoint-resume — the dirty
// and out-of-order input story of doc.go, exercised through the public
// API. The CountStream names keep these under the -race target.

// displaceTemporal block-shuffles a timestamped stream within disjoint
// blocks of blk positions and reports the lateness bound that makes
// every displacement tolerable (the widest block's timestamp span).
func displaceTemporal(edges []streamtri.TimestampedEdge, blk int, seed uint64) ([]streamtri.TimestampedEdge, int64) {
	rng := randx.New(seed)
	out := append([]streamtri.TimestampedEdge(nil), edges...)
	var bound int64
	for lo := 0; lo < len(out); lo += blk {
		hi := lo + blk
		if hi > len(out) {
			hi = len(out)
		}
		if span := out[hi-1].TS - out[lo].TS; span > bound {
			bound = span
		}
		for i := hi - 1; i > lo; i-- {
			j := lo + int(rng.Uint64N(uint64(i-lo+1)))
			out[i], out[j] = out[j], out[i]
		}
	}
	return out, bound
}

// The headline guarantee: unsorted shards through the watermark stage
// produce EXACTLY the estimate of the sorted stream — displacement
// within the lateness bound is invisible, bit for bit, for one source
// and for several.
func TestSlidingWindowCountStreamsWatermarkMatchesSortedOracle(t *testing.T) {
	temporal := temporalStream(31, 3000)
	plain := make([]streamtri.Edge, len(temporal))
	for i, e := range temporal {
		plain[i] = e.E
	}
	const r, w = 128, 2200

	ref := streamtri.NewSlidingWindowCounter(r, w, streamtri.WithSeed(5))
	if _, err := ref.CountStream(context.Background(), streamtri.NewSliceSource(plain)); err != nil {
		t.Fatal(err)
	}
	want := ref.EstimateTriangles()

	for _, k := range []int{1, 2, 3} {
		shards := shardTemporal(temporal, k, 500+uint64(k))
		srcs := make([]streamtri.TimestampedSource, k)
		var lateness int64
		for i, shard := range shards {
			displaced, bound := displaceTemporal(shard, 13, uint64(i)*7+1)
			if bound > lateness {
				lateness = bound
			}
			srcs[i] = streamtri.NewTimestampedSliceSource(displaced)
		}
		sw := streamtri.NewSlidingWindowCounter(r, w, streamtri.WithSeed(5),
			streamtri.WithLateness(lateness), streamtri.WithLatePolicy(streamtri.LateCount))
		st, err := sw.CountStreams(context.Background(), srcs...)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if st.Edges != uint64(len(temporal)) {
			t.Fatalf("k=%d: merged %d of %d edges", k, st.Edges, len(temporal))
		}
		if st.LateEdges != 0 {
			t.Fatalf("k=%d: %d late edges on displacement within bound", k, st.LateEdges)
		}
		if got := sw.EstimateTriangles(); got != want {
			t.Fatalf("k=%d: watermark estimate %v != sorted-stream %v", k, got, want)
		}
	}
}

// Sorted input with lateness 0 takes the heap-free direct path and must
// stay bit-identical to the unwatermarked ordered merge.
func TestSlidingWindowCountStreamsLatenessZeroBitIdentical(t *testing.T) {
	temporal := temporalStream(17, 2500)
	const r, w = 128, 1800
	shards := shardTemporal(temporal, 2, 99)

	mkSrcs := func() []streamtri.TimestampedSource {
		return []streamtri.TimestampedSource{
			streamtri.NewTimestampedSliceSource(shards[0]),
			streamtri.NewTimestampedSliceSource(shards[1]),
		}
	}

	ref := streamtri.NewSlidingWindowCounter(r, w, streamtri.WithSeed(2))
	if _, err := ref.CountStreams(context.Background(), mkSrcs()...); err != nil {
		t.Fatal(err)
	}
	sw := streamtri.NewSlidingWindowCounter(r, w, streamtri.WithSeed(2), streamtri.WithLateness(0))
	st, err := sw.CountStreams(context.Background(), mkSrcs()...)
	if err != nil {
		t.Fatal(err)
	}
	if st.LateEdges != 0 {
		t.Fatalf("late edges on sorted input: %d", st.LateEdges)
	}
	if got, want := sw.EstimateTriangles(), ref.EstimateTriangles(); got != want {
		t.Fatalf("lateness-0 estimate %v != plain ordered estimate %v", got, want)
	}
	if sw.WindowEdges() != ref.WindowEdges() || sw.StreamLength() != ref.StreamLength() {
		t.Fatal("window state diverged on sorted input with lateness 0")
	}
}

// Late edges beyond the bound are excluded deterministically: the
// estimate equals a run over the stream with exactly those edges
// removed, the count is attributed per source, and the side channel
// sees each one.
func TestSlidingWindowCountStreamLateEdgesExcluded(t *testing.T) {
	temporal := temporalStream(23, 2000)
	const lateness = 5
	// Displace a handful of edges far beyond the bound.
	arrivals := append([]streamtri.TimestampedEdge(nil), temporal...)
	var wantLate []streamtri.TimestampedEdge
	for i := 100; i < len(arrivals); i += 400 {
		arrivals[i].TS -= 1000 // displacement 1000 >> lateness
		wantLate = append(wantLate, arrivals[i])
	}
	// Oracle: the same stream with the late edges removed, sorted.
	var kept []streamtri.TimestampedEdge
	for i, e := range arrivals {
		if i >= 100 && (i-100)%400 == 0 {
			continue
		}
		kept = append(kept, e)
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].TS < kept[j].TS })
	plain := make([]streamtri.Edge, len(kept))
	for i, e := range kept {
		plain[i] = e.E
	}

	const r, w = 128, 1500
	ref := streamtri.NewSlidingWindowCounter(r, w, streamtri.WithSeed(8))
	if _, err := ref.CountStream(context.Background(), streamtri.NewSliceSource(plain)); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var gotLate []streamtri.TimestampedEdge
	sw := streamtri.NewSlidingWindowCounter(r, w, streamtri.WithSeed(8),
		streamtri.WithLateness(lateness),
		streamtri.WithLateSideChannel(func(e streamtri.TimestampedEdge) {
			mu.Lock()
			gotLate = append(gotLate, e)
			mu.Unlock()
		}))
	st, err := sw.CountStreams(context.Background(), streamtri.NewTimestampedSliceSource(arrivals))
	if err != nil {
		t.Fatal(err)
	}
	if st.LateEdges != uint64(len(wantLate)) {
		t.Fatalf("LateEdges = %d, want %d", st.LateEdges, len(wantLate))
	}
	if len(st.PerSource) != 1 || st.PerSource[0].LateEdges != uint64(len(wantLate)) {
		t.Fatalf("per-source late attribution = %+v", st.PerSource)
	}
	if len(gotLate) != len(wantLate) {
		t.Fatalf("side channel saw %d edges, want %d", len(gotLate), len(wantLate))
	}
	for i := range gotLate {
		if gotLate[i] != wantLate[i] {
			t.Fatalf("side-channel edge %d: got %+v, want %+v", i, gotLate[i], wantLate[i])
		}
	}
	if got, want := sw.EstimateTriangles(), ref.EstimateTriangles(); got != want {
		t.Fatalf("estimate with late edges excluded %v != oracle %v", got, want)
	}
}

// WithDecodeErrorPolicy skips garbage records up to the budget: the
// estimate is bit-identical to a clean stream (skips don't perturb the
// estimator state) and the skips are counted with samples retained.
func TestCountStreamDecodeErrorPolicy(t *testing.T) {
	edges := syn3regStream(41)
	var dirty bytes.Buffer
	bad := 0
	for i, e := range edges {
		if i%250 == 249 {
			fmt.Fprintf(&dirty, "corrupt record %d\n", bad)
			bad++
		}
		fmt.Fprintf(&dirty, "%d\t%d\n", e.U, e.V)
	}

	ref := streamtri.NewTriangleCounter(2000, streamtri.WithSeed(6))
	if _, err := ref.CountStream(context.Background(), streamtri.NewSliceSource(edges)); err != nil {
		t.Fatal(err)
	}

	tc := streamtri.NewTriangleCounter(2000, streamtri.WithSeed(6),
		streamtri.WithDecodeErrorPolicy(bad))
	st, err := tc.CountStream(context.Background(),
		streamtri.NewEdgeListSource(bytes.NewReader(dirty.Bytes())))
	if err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if st.Edges != uint64(len(edges)) || st.BadRecords != uint64(bad) {
		t.Fatalf("edges=%d bad=%d, want %d/%d", st.Edges, st.BadRecords, len(edges), bad)
	}
	if got, want := tc.EstimateTriangles(), ref.EstimateTriangles(); got != want {
		t.Fatalf("estimate over skipped garbage %v != clean estimate %v", got, want)
	}

	// One short of the garbage count: the run must fail and carry samples.
	over := streamtri.NewTriangleCounter(2000, streamtri.WithSeed(6),
		streamtri.WithDecodeErrorPolicy(bad-1))
	_, err = over.CountStream(context.Background(),
		streamtri.NewEdgeListSource(bytes.NewReader(dirty.Bytes())))
	if err == nil || !strings.Contains(err.Error(), "decode-error budget exceeded") ||
		!strings.Contains(err.Error(), "corrupt record 0") {
		t.Fatalf("over budget error = %v", err)
	}
}

// failingSource yields n edges of a fixed stream, then fails.
type failingSource struct {
	edges []streamtri.Edge
	n     int
	pos   int
}

func (s *failingSource) Next() (streamtri.Edge, error) {
	if s.pos >= s.n {
		return streamtri.Edge{}, fmt.Errorf("source died at edge %d", s.pos)
	}
	e := s.edges[s.pos]
	s.pos++
	return e, nil
}

// Kill one of k at the public API: continue-on-source-failure returns a
// nil error, the survivors' edges are all absorbed, and the terminal
// error is attributed to the dead source in PerSource.
func TestCountStreamsContinueOnSourceFailure(t *testing.T) {
	edges := syn3regStream(43)
	third := len(edges) / 3
	const dieAt = 123

	tc := streamtri.NewTriangleCounter(2000, streamtri.WithSeed(12),
		streamtri.WithContinueOnSourceFailure())
	st, err := tc.CountStreams(context.Background(),
		streamtri.NewSliceSource(edges[:third]),
		&failingSource{edges: edges[third : 2*third], n: dieAt},
		streamtri.NewSliceSource(edges[2*third:]),
	)
	if err != nil {
		t.Fatalf("run with one dead source: %v", err)
	}
	want := uint64(third + dieAt + len(edges) - 2*third)
	if st.Edges != want || tc.Edges() != want {
		t.Fatalf("absorbed %d edges (counter %d), want %d", st.Edges, tc.Edges(), want)
	}
	if st.PerSource[1].Err == nil || !strings.Contains(st.PerSource[1].Err.Error(), "source died at edge 123") {
		t.Fatalf("dead source Err = %v", st.PerSource[1].Err)
	}
	if st.PerSource[0].Err != nil || st.PerSource[2].Err != nil {
		t.Fatalf("survivor errors: %v, %v", st.PerSource[0].Err, st.PerSource[2].Err)
	}
	// The counter remains usable.
	tc.Add(streamtri.Edge{U: 1, V: 2})
	tc.Flush()
}

// failingTimestampedSource is failingSource for the windowed merge.
type failingTimestampedSource struct {
	edges []streamtri.TimestampedEdge
	n     int
	pos   int
}

func (s *failingTimestampedSource) NextTimestamped() (streamtri.TimestampedEdge, error) {
	if s.pos >= s.n {
		return streamtri.TimestampedEdge{}, fmt.Errorf("temporal source died at edge %d", s.pos)
	}
	e := s.edges[s.pos]
	s.pos++
	return e, nil
}

// The windowed merge stays fail-fast even with continue-on-source-failure
// set: without the dead source's remainder the window would cover a
// different stream, so the run must fail instead of completing.
func TestSlidingWindowCountStreamsStaysFailFast(t *testing.T) {
	shards := shardTemporal(temporalStream(44, 3000), 2, 9)
	sw := streamtri.NewSlidingWindowCounter(256, 2000, streamtri.WithSeed(13),
		streamtri.WithContinueOnSourceFailure())
	st, err := sw.CountStreams(context.Background(),
		streamtri.NewTimestampedSliceSource(shards[0]),
		&failingTimestampedSource{edges: shards[1], n: len(shards[1]) / 2},
	)
	if err == nil || !strings.Contains(err.Error(), "temporal source died") {
		t.Fatalf("windowed run error = %v, want the dead source's failure", err)
	}
	if sw.StreamLength() != st.Edges {
		t.Fatalf("window absorbed %d edges but stats report %d", sw.StreamLength(), st.Edges)
	}
}

// Checkpoint-resume across a mid-stream failure: interrupt CountStream,
// checkpoint the counter, restore it (as another process would), resume
// from the first unabsorbed edge, and land on the uninterrupted run's
// estimate bit for bit.
func TestCountStreamCheckpointResume(t *testing.T) {
	edges := syn3regStream(47)
	// Batch processing consumes estimator randomness per batch, so
	// bit-identical resume needs the interruption to land on a batch
	// boundary: a fixed batch size w with the failure at a multiple of w
	// keeps the resumed run's batch boundaries identical to the
	// uninterrupted run's.
	const r, w, dieAt = 1500, 512, 2048

	ref := streamtri.NewTriangleCounter(r, streamtri.WithSeed(9), streamtri.WithBatchSize(w))
	if _, err := ref.CountStream(context.Background(), streamtri.NewSliceSource(edges)); err != nil {
		t.Fatal(err)
	}
	want := ref.EstimateTriangles()

	tc := streamtri.NewTriangleCounter(r, streamtri.WithSeed(9), streamtri.WithBatchSize(w))
	st, err := tc.CountStream(context.Background(), &failingSource{edges: edges, n: dieAt})
	if err == nil {
		t.Fatal("want the injected mid-stream failure")
	}
	if st.Edges != dieAt || tc.Edges() != dieAt {
		t.Fatalf("absorbed %d edges (counter %d), want %d", st.Edges, tc.Edges(), dieAt)
	}

	var ckpt bytes.Buffer
	if _, err := tc.WriteTo(&ckpt); err != nil {
		t.Fatal(err)
	}
	restored, err := streamtri.RestoreTriangleCounter(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Edges() != st.Edges {
		t.Fatalf("restored counter at edge %d, checkpoint taken at %d", restored.Edges(), st.Edges)
	}
	if _, err := restored.CountStream(context.Background(),
		streamtri.NewSliceSource(edges[st.Edges:])); err != nil {
		t.Fatal(err)
	}
	if got := restored.EstimateTriangles(); got != want {
		t.Fatalf("resumed estimate %v != uninterrupted %v (must be bit-identical)", got, want)
	}
	if restored.Edges() != uint64(len(edges)) {
		t.Fatalf("resumed counter at edge %d, want %d", restored.Edges(), len(edges))
	}
}

// A corrupt checkpoint must fail restoration loudly, not produce a
// counter with undefined state.
func TestCountStreamCheckpointRejectsTruncation(t *testing.T) {
	tc := streamtri.NewTriangleCounter(64, streamtri.WithSeed(1))
	for _, e := range syn3regStream(3)[:500] {
		tc.Add(e)
	}
	var ckpt bytes.Buffer
	if _, err := tc.WriteTo(&ckpt); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 4, ckpt.Len() / 2, ckpt.Len() - 1} {
		if _, err := streamtri.RestoreTriangleCounter(bytes.NewReader(ckpt.Bytes()[:cut])); err == nil {
			t.Fatalf("restoring a checkpoint truncated to %d bytes succeeded", cut)
		}
	}
}

// Ingest options are not checkpointed, so each Restore function takes
// them again: restored with WithDecodeErrorPolicy, every checkpointed
// type skips a malformed line of a text source; restored without it,
// it fails on that line.
func TestCountStreamRestoreTakesIngestOptions(t *testing.T) {
	edges := syn3regStream(43)[:300]
	var dirty bytes.Buffer
	for i, e := range edges {
		if i == 250 {
			dirty.WriteString("not an edge\n")
		}
		fmt.Fprintf(&dirty, "%d\t%d\n", e.U, e.V)
	}
	type restorable interface {
		CountStream(context.Context, streamtri.Source) (streamtri.StreamStats, error)
		WriteTo(io.Writer) (int64, error)
	}
	budget := streamtri.WithDecodeErrorPolicy(5)
	for _, tc := range []struct {
		name    string
		c       restorable
		restore func(io.Reader, ...streamtri.Option) (restorable, error)
	}{
		{"TriangleCounter", streamtri.NewTriangleCounter(64, budget),
			func(r io.Reader, opts ...streamtri.Option) (restorable, error) {
				return streamtri.RestoreTriangleCounter(r, opts...)
			}},
		{"ParallelTriangleCounter", streamtri.NewParallelTriangleCounter(64, 2, budget),
			func(r io.Reader, opts ...streamtri.Option) (restorable, error) {
				return streamtri.RestoreParallelTriangleCounter(r, opts...)
			}},
		{"SlidingWindowCounter", streamtri.NewSlidingWindowCounter(64, 100, budget),
			func(r io.Reader, opts ...streamtri.Option) (restorable, error) {
				return streamtri.RestoreSlidingWindowCounter(r, opts...)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ckpt bytes.Buffer
			if _, err := tc.c.WriteTo(&ckpt); err != nil {
				t.Fatal(err)
			}
			count := func(opts ...streamtri.Option) (streamtri.StreamStats, error) {
				c, err := tc.restore(bytes.NewReader(ckpt.Bytes()), opts...)
				if err != nil {
					t.Fatal(err)
				}
				return c.CountStream(context.Background(), streamtri.NewEdgeListSource(bytes.NewReader(dirty.Bytes())))
			}
			st, err := count(budget)
			if err != nil || st.Edges != uint64(len(edges)) || st.BadRecords != 1 {
				t.Fatalf("restored with the budget: %d edges, %d bad records, %v; want %d, 1, nil",
					st.Edges, st.BadRecords, err, len(edges))
			}
			if _, err := count(); err == nil || !strings.Contains(err.Error(), "line 251") {
				t.Fatalf("restored without the budget: %v, want a failure at line 251", err)
			}
		})
	}
}

// The windowed analogue of TestCountStreamCheckpointResume, as a prefix
// property: interrupt a windowed CountStream at EVERY batch boundary,
// checkpoint, restore (as another process would), resume from the first
// unabsorbed edge, and land bit-for-bit on the uninterrupted run's
// estimate, window fill, and stream position. The windowed estimator
// consumes randomness per edge, so any prefix works; interrupting at
// batch boundaries is what a real pipeline failure produces.
func TestSlidingWindowCheckpointResumeEveryBatchBoundary(t *testing.T) {
	edges := syn3regStream(53)[:1536]
	const r, win, batch = 64, 600, 256

	oracle := streamtri.NewSlidingWindowCounter(r, win, streamtri.WithSeed(17), streamtri.WithBatchSize(batch))
	if _, err := oracle.CountStream(context.Background(), streamtri.NewSliceSource(edges)); err != nil {
		t.Fatal(err)
	}
	wantEst := oracle.EstimateTriangles()
	wantWin := oracle.WindowEdges()
	wantLen := oracle.StreamLength()

	for dieAt := batch; dieAt < len(edges); dieAt += batch {
		sw := streamtri.NewSlidingWindowCounter(r, win, streamtri.WithSeed(17), streamtri.WithBatchSize(batch))
		if _, err := sw.CountStream(context.Background(), &failingSource{edges: edges, n: dieAt}); err == nil {
			t.Fatalf("dieAt=%d: want the injected mid-stream failure", dieAt)
		}
		if sw.StreamLength() != uint64(dieAt) {
			t.Fatalf("dieAt=%d: absorbed %d edges", dieAt, sw.StreamLength())
		}

		var ckpt bytes.Buffer
		if _, err := sw.WriteTo(&ckpt); err != nil {
			t.Fatalf("dieAt=%d: %v", dieAt, err)
		}
		restored, err := streamtri.RestoreSlidingWindowCounter(bytes.NewReader(ckpt.Bytes()))
		if err != nil {
			t.Fatalf("dieAt=%d: %v", dieAt, err)
		}
		if restored.StreamLength() != uint64(dieAt) {
			t.Fatalf("dieAt=%d: restored at stream position %d", dieAt, restored.StreamLength())
		}
		if _, err := restored.CountStream(context.Background(),
			streamtri.NewSliceSource(edges[dieAt:])); err != nil {
			t.Fatalf("dieAt=%d: resume: %v", dieAt, err)
		}
		if got := restored.EstimateTriangles(); got != wantEst {
			t.Fatalf("dieAt=%d: resumed estimate %v != uninterrupted %v (must be bit-identical)", dieAt, got, wantEst)
		}
		if got := restored.WindowEdges(); got != wantWin {
			t.Fatalf("dieAt=%d: resumed window fill %d != %d", dieAt, got, wantWin)
		}
		if got := restored.StreamLength(); got != wantLen {
			t.Fatalf("dieAt=%d: resumed stream length %d != %d", dieAt, got, wantLen)
		}
	}
}

// A corrupt or truncated windowed checkpoint must be rejected by name,
// never restored into undefined estimator state.
func TestSlidingWindowCheckpointRejectsCorruption(t *testing.T) {
	sw := streamtri.NewSlidingWindowCounter(32, 200, streamtri.WithSeed(3))
	sw.AddBatch(syn3regStream(5)[:700])
	var ckpt bytes.Buffer
	if _, err := sw.WriteTo(&ckpt); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 4, 11, ckpt.Len() / 2, ckpt.Len() - 1} {
		if _, err := streamtri.RestoreSlidingWindowCounter(bytes.NewReader(ckpt.Bytes()[:cut])); err == nil {
			t.Fatalf("restoring a checkpoint truncated to %d bytes succeeded", cut)
		}
	}
	// The NSTW magic sits right after the 8-byte batch-size header;
	// breaking it must be named, not misparsed.
	bad := append([]byte(nil), ckpt.Bytes()...)
	bad[8] = 'X'
	if _, err := streamtri.RestoreSlidingWindowCounter(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "bad checkpoint magic") {
		t.Fatalf("corrupt magic error = %v, want it named", err)
	}
}

// The timestamped text decoder + watermark + budget survive a dirty
// unsorted file end to end through the public API.
func TestSlidingWindowCountStreamsDirtyFile(t *testing.T) {
	temporal := temporalStream(29, 1500)
	arrivals, bound := displaceTemporal(temporal, 9, 3)
	var buf bytes.Buffer
	if err := streamtri.WriteTimestampedEdgeList(&buf, arrivals); err != nil {
		t.Fatal(err)
	}
	// Corrupt one line mid-file without touching record boundaries.
	payload := bytes.Replace(buf.Bytes(), []byte("\t"), []byte("\tnope"), 1)

	sw := streamtri.NewSlidingWindowCounter(64, 1000, streamtri.WithSeed(4),
		streamtri.WithLateness(bound), streamtri.WithDecodeErrorPolicy(1))
	st, err := sw.CountStreams(context.Background(),
		streamtri.NewTimestampedEdgeListSource(bytes.NewReader(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Edges != uint64(len(temporal)-1) || st.BadRecords != 1 {
		t.Fatalf("edges=%d bad=%d, want %d/1", st.Edges, st.BadRecords, len(temporal)-1)
	}
	if sw.EstimateTriangles() < 0 {
		t.Fatal("estimate went negative")
	}
}

// A block-binary stream cut off mid-block — the shape a crashed writer
// leaves behind — decodes as exactly the whole blocks before the cut:
// the torn block costs one decode error (absorbed by the budget) and
// never a partial batch. This is the public-API face of the per-block
// CRC the serving WAL's torn-tail recovery is built on.
func TestBlockBinaryTornTailWholeBlockPrefix(t *testing.T) {
	temporal := temporalStream(31, 150) // 3 seed + 147 growth edges -> 447 edges
	const perBlock = 64
	var buf bytes.Buffer
	if err := streamtri.WriteBlockBinaryEdges(&buf, temporal, streamtri.WithBlockRecords(perBlock)); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Layout: 8-byte magic, then blocks of 32-byte header + 16 bytes per
	// record.
	ends := []int{8}
	for got := 0; got < len(temporal); {
		n := perBlock
		if len(temporal)-got < n {
			n = len(temporal) - got
		}
		got += n
		ends = append(ends, ends[len(ends)-1]+32+16*n)
	}
	if ends[len(ends)-1] != len(whole) {
		t.Fatalf("stream is %d bytes, want %d", len(whole), ends[len(ends)-1])
	}
	for cut := 8; cut <= len(whole); cut += 37 {
		wantEdges := uint64(0)
		for i, end := range ends[1:] {
			if cut >= end {
				wantEdges = uint64((i + 1) * perBlock)
			}
		}
		if wantEdges > uint64(len(temporal)) {
			wantEdges = uint64(len(temporal))
		}
		torn := cut < len(whole)
		sw := streamtri.NewSlidingWindowCounter(64, 1<<30, streamtri.WithSeed(6),
			streamtri.WithDecodeErrorPolicy(1))
		st, err := sw.CountStreams(context.Background(),
			streamtri.NewBlockBinaryEdgeSource(bytes.NewReader(whole[:cut])))
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if st.Edges != wantEdges {
			t.Fatalf("cut=%d: decoded %d edges, want the whole-block prefix %d", cut, st.Edges, wantEdges)
		}
		// A cut inside a block surfaces as exactly one skippable decode
		// error; a cut at a block boundary surfaces as none.
		wantBad := uint64(0)
		if torn {
			wantBad = 1
			for _, end := range ends {
				if cut == end {
					wantBad = 0
				}
			}
		}
		if st.BadRecords != wantBad {
			t.Fatalf("cut=%d: %d bad records, want %d", cut, st.BadRecords, wantBad)
		}
	}
}
