package stream

import (
	"errors"
	"io"
	"math"
	"sort"
	"strings"
	"testing"

	"streamtri/internal/graph"
	"streamtri/internal/randx"
)

// wmOracle is the specification the watermark stage is tested against:
// replay the arrival sequence through the lateness rule (an edge is late
// iff its timestamp is below max-seen − L at the moment it arrives),
// then stably sort the survivors by timestamp. The stage must reproduce
// this exactly — same edges, same order — for every batch size.
func wmOracle(arrivals []TimestampedEdge, lateness int64) (kept, late []TimestampedEdge) {
	seen := false
	var maxTS int64
	for _, e := range arrivals {
		if seen && e.TS < watermarkFor(maxTS, lateness) {
			late = append(late, e)
			continue
		}
		kept = append(kept, e)
		if !seen || e.TS > maxTS {
			maxTS, seen = e.TS, true
		}
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].TS < kept[j].TS })
	return kept, late
}

// wmCollect drains a WatermarkSource through FillTimestamped in batches
// of w.
func wmCollect(t *testing.T, s *WatermarkSource, w int) []TimestampedEdge {
	t.Helper()
	var out []TimestampedEdge
	buf := make([]TimestampedEdge, w)
	for {
		n, err := s.FillTimestamped(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("FillTimestamped: %v", err)
		}
		if n == 0 {
			t.Fatal("FillTimestamped returned (0, nil)")
		}
	}
}

func wmEqual(t *testing.T, got, want []TimestampedEdge, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d edges, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// blockShuffle permutes edges within disjoint blocks of size b,
// preserving block order. With timestamps incrementing by 1 per edge,
// this bounds every edge's timestamp displacement by b−1, so a
// lateness of b−1 must recover the sorted stream with zero late edges.
func blockShuffle(edges []TimestampedEdge, b int, seed uint64) []TimestampedEdge {
	rng := randx.New(seed)
	out := append([]TimestampedEdge(nil), edges...)
	for lo := 0; lo < len(out); lo += b {
		hi := lo + b
		if hi > len(out) {
			hi = len(out)
		}
		for i := hi - 1; i > lo; i-- {
			j := lo + int(rng.Uint64N(uint64(i-lo+1)))
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// Displacement within the lateness bound must be invisible: the stage
// output equals the stably sorted input exactly, with no late edges,
// for every (lateness, batch size) combination.
func TestWatermarkBoundedDisplacementMatchesSortOracle(t *testing.T) {
	const n = 4096
	sorted := tsEdges(n, 1_000_000) // timestamps base+i, strictly increasing
	for _, L := range []int64{1, 2, 7, 64, 511} {
		for _, w := range []int{1, 3, 64, 1024} {
			arrivals := blockShuffle(sorted, int(L)+1, uint64(L)*31+uint64(w))
			s := NewWatermarkSource(NewTimestampedSliceSource(arrivals), L, LateCount, nil)
			got := wmCollect(t, s, w)
			wmEqual(t, got, sorted, "recovered stream")
			if s.LateEdges() != 0 {
				t.Fatalf("L=%d w=%d: %d late edges on displacement <= L input", L, w, s.LateEdges())
			}
		}
	}
}

// Arbitrary jitter, including displacement beyond the bound: the stage
// must agree with the replay-then-stable-sort oracle on both the
// emitted stream and the set of late edges.
func TestWatermarkRandomJitterMatchesOracle(t *testing.T) {
	const n = 4096
	for _, tc := range []struct {
		L      int64
		jitter int64
		w      int
	}{
		{0, 3, 64}, {1, 4, 1}, {8, 24, 128}, {50, 200, 1024}, {100, 90, 7},
	} {
		rng := randx.New(uint64(tc.L)<<16 ^ uint64(tc.jitter))
		arrivals := make([]TimestampedEdge, n)
		for i := range arrivals {
			ts := int64(i) + int64(rng.Uint64N(uint64(2*tc.jitter+1))) - tc.jitter
			arrivals[i] = TimestampedEdge{
				E:  graph.Edge{U: graph.NodeID(i), V: graph.NodeID(i + n)},
				TS: ts,
			}
		}
		wantKept, wantLate := wmOracle(arrivals, tc.L)

		var gotLate []TimestampedEdge
		s := NewWatermarkSource(NewTimestampedSliceSource(arrivals), tc.L, LateSideChannel,
			func(e TimestampedEdge) { gotLate = append(gotLate, e) })
		got := wmCollect(t, s, tc.w)

		wmEqual(t, got, wantKept, "emitted stream")
		wmEqual(t, gotLate, wantLate, "late side channel")
		if s.LateEdges() != uint64(len(wantLate)) {
			t.Fatalf("LateEdges = %d, want %d", s.LateEdges(), len(wantLate))
		}
	}
}

// Equal timestamps must keep arrival order (stable), matching the
// stable-sort oracle.
func TestWatermarkStableOnEqualTimestamps(t *testing.T) {
	var arrivals []TimestampedEdge
	rng := randx.New(7)
	for i := 0; i < 2000; i++ {
		arrivals = append(arrivals, TimestampedEdge{
			E:  graph.Edge{U: graph.NodeID(i), V: graph.NodeID(i + 1)},
			TS: int64(rng.Uint64N(20)), // heavy ties, displacement < 20
		})
	}
	want, _ := wmOracle(arrivals, 100)
	s := NewWatermarkSource(NewTimestampedSliceSource(arrivals), 100, LateCount, nil)
	wmEqual(t, wmCollect(t, s, 33), want, "stable tie order")
	if s.LateEdges() != 0 {
		t.Fatalf("late edges on fully tolerated input: %d", s.LateEdges())
	}
}

// L = 0 on sorted input is the no-op case: identical edges AND identical
// batch boundaries to reading the source directly, which is what makes
// wrapping free for clean input.
func TestWatermarkZeroLatenessPassThrough(t *testing.T) {
	const n, w = 3000, 256
	sorted := tsEdges(n, 42)

	direct := NewTimestampedSliceSource(sorted)
	wrapped := NewWatermarkSource(NewTimestampedSliceSource(sorted), 0, LateCount, nil)
	buf1 := make([]TimestampedEdge, w)
	buf2 := make([]TimestampedEdge, w)
	for call := 0; ; call++ {
		n1, err1 := direct.FillTimestamped(buf1)
		n2, err2 := wrapped.FillTimestamped(buf2)
		if n1 != n2 || err1 != err2 {
			t.Fatalf("call %d: direct (%d, %v) vs wrapped (%d, %v)", call, n1, err1, n2, err2)
		}
		wmEqual(t, buf2[:n2], buf1[:n1], "batch content")
		if err1 == io.EOF {
			break
		}
	}
	if wrapped.LateEdges() != 0 {
		t.Fatalf("late edges on sorted input: %d", wrapped.LateEdges())
	}
}

// L = 0 on unsorted input is the pure out-of-order filter: every edge
// whose timestamp regresses is late, the rest pass through in order.
func TestWatermarkZeroLatenessFiltersRegressions(t *testing.T) {
	arrivals := []TimestampedEdge{
		{E: graph.Edge{U: 0, V: 1}, TS: 10},
		{E: graph.Edge{U: 1, V: 2}, TS: 5}, // regression: late
		{E: graph.Edge{U: 2, V: 3}, TS: 10},
		{E: graph.Edge{U: 3, V: 4}, TS: 11},
		{E: graph.Edge{U: 4, V: 5}, TS: 9}, // regression: late
		{E: graph.Edge{U: 5, V: 6}, TS: 12},
	}
	want, wantLate := wmOracle(arrivals, 0)
	if len(wantLate) != 2 {
		t.Fatalf("oracle marked %d late, want 2", len(wantLate))
	}
	s := NewWatermarkSource(NewTimestampedSliceSource(arrivals), 0, LateCount, nil)
	wmEqual(t, wmCollect(t, s, 4), want, "filtered stream")
	if s.LateEdges() != 2 {
		t.Fatalf("LateEdges = %d, want 2", s.LateEdges())
	}
}

// LateDrop neither counts nor reports; LateCount counts without a
// callback.
func TestWatermarkLatePolicies(t *testing.T) {
	arrivals := []TimestampedEdge{
		{E: graph.Edge{U: 0, V: 1}, TS: 100},
		{E: graph.Edge{U: 1, V: 2}, TS: 1}, // late for any small L
		{E: graph.Edge{U: 2, V: 3}, TS: 101},
	}
	drop := NewWatermarkSource(NewTimestampedSliceSource(arrivals), 5, LateDrop, nil)
	if got := wmCollect(t, drop, 8); len(got) != 2 {
		t.Fatalf("LateDrop emitted %d edges, want 2", len(got))
	}
	if drop.LateEdges() != 0 {
		t.Fatalf("LateDrop counted %d late edges, want 0", drop.LateEdges())
	}
	count := NewWatermarkSource(NewTimestampedSliceSource(arrivals), 5, LateCount, nil)
	wmCollect(t, count, 8)
	if count.LateEdges() != 1 {
		t.Fatalf("LateCount counted %d late edges, want 1", count.LateEdges())
	}
}

// A wrapped-source error surfaces after the edges already emitted by
// the same call; edges still buffered in the heap are not flushed
// (fail-fast, like the pipelines downstream).
func TestWatermarkErrorPropagation(t *testing.T) {
	const failAt = 100
	src := &tsErrorSource{n: failAt}
	s := NewWatermarkSource(src, 10, LateCount, nil)
	var got []TimestampedEdge
	buf := make([]TimestampedEdge, 32)
	var err error
	for err == nil {
		var n int
		n, err = s.FillTimestamped(buf)
		got = append(got, buf[:n]...)
	}
	if err == io.EOF || !strings.Contains(err.Error(), "temporal decoder exploded") {
		t.Fatalf("error = %v, want decoder explosion", err)
	}
	// With lateness 10, edges within 10 of the max seen stay buffered
	// when the error hits; they must NOT have been emitted.
	if len(got) >= failAt {
		t.Fatalf("emitted %d edges, want fewer than %d (heap not flushed on error)", len(got), failAt)
	}
	for i, e := range got {
		if e.TS != int64(i) {
			t.Fatalf("edge %d has TS %d, want %d", i, e.TS, i)
		}
	}
	// The error is terminal: further calls return it or EOF, never edges.
	if n, err := s.FillTimestamped(buf); n != 0 || err == nil {
		t.Fatalf("after error: (%d, %v), want (0, non-nil)", n, err)
	}
}

// NextTimestamped must agree with FillTimestamped edge for edge.
func TestWatermarkNextMatchesFill(t *testing.T) {
	const n = 1000
	arrivals := blockShuffle(tsEdges(n, 0), 8, 99)
	fill := NewWatermarkSource(NewTimestampedSliceSource(arrivals), 7, LateCount, nil)
	next := NewWatermarkSource(NewTimestampedSliceSource(arrivals), 7, LateCount, nil)
	want := wmCollect(t, fill, 64)
	var got []TimestampedEdge
	for {
		e, err := next.NextTimestamped()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("NextTimestamped: %v", err)
		}
		got = append(got, e)
	}
	wmEqual(t, got, want, "Next vs Fill")
}

// Extreme timestamps near MinInt64 must not wrap the watermark around:
// the subtraction saturates, so nothing is spuriously late or stuck.
func TestWatermarkSaturatesAtMinInt64(t *testing.T) {
	arrivals := []TimestampedEdge{
		{E: graph.Edge{U: 0, V: 1}, TS: math.MinInt64 + 2},
		{E: graph.Edge{U: 1, V: 2}, TS: math.MinInt64},
		{E: graph.Edge{U: 2, V: 3}, TS: math.MinInt64 + 1},
		{E: graph.Edge{U: 3, V: 4}, TS: math.MaxInt64},
	}
	s := NewWatermarkSource(NewTimestampedSliceSource(arrivals), 1000, LateCount, nil)
	got := wmCollect(t, s, 2)
	want, _ := wmOracle(arrivals, 1000)
	wmEqual(t, got, want, "saturated watermark")
	if s.LateEdges() != 0 {
		t.Fatalf("late edges: %d, want 0 (saturation keeps everything on time)", s.LateEdges())
	}
}

// The stage slots under the ordered merge: per-shard displacement
// repaired per source, then k-way merged — the result is the original
// sorted stream, exactly, with goroutines accounted for.
func TestWatermarkUnderOrderedPipeline(t *testing.T) {
	base := goroutineBaseline()
	const n, blk = 6000, 17
	sorted := tsEdges(n, 500_000)
	for _, k := range []int{1, 2, 3} {
		shards := splitShards(sorted, k, uint64(k))
		// Shuffling blk shard positions displaces timestamps by up to the
		// widest block's timestamp span (shards are subsequences, so
		// adjacent positions can be several timestamp units apart); a
		// lateness of that span makes every displacement tolerable.
		var L int64
		for _, shard := range shards {
			for lo := 0; lo < len(shard); lo += blk {
				hi := lo + blk
				if hi > len(shard) {
					hi = len(shard)
				}
				if span := shard[hi-1].TS - shard[lo].TS; span > L {
					L = span
				}
			}
		}
		srcs := make([]TimestampedSource, k)
		for i, shard := range shards {
			arrivals := blockShuffle(shard, blk, uint64(i)+1)
			srcs[i] = NewWatermarkSource(NewTimestampedSliceSource(arrivals), L, LateCount, nil)
		}
		p, err := NewOrderedMultiPipeline(t.Context(), srcs, 128)
		if err != nil {
			t.Fatal(err)
		}
		var got []graph.Edge
		if err := p.Run(func(batch []graph.Edge) error {
			got = append(got, batch...)
			return nil
		}); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		p.Close()
		if len(got) != n {
			t.Fatalf("k=%d: merged %d edges, want %d", k, len(got), n)
		}
		for i, e := range got {
			if e != sorted[i].E {
				t.Fatalf("k=%d: edge %d: got %+v, want %+v", k, i, e, sorted[i].E)
			}
		}
		for i, s := range srcs {
			if late := s.(*WatermarkSource).LateEdges(); late != 0 {
				t.Fatalf("k=%d source %d: %d late edges", k, i, late)
			}
		}
	}
	assertNoLeak(t, base)
}

// Errors wrapped by a WatermarkSource keep their identity for
// errors.Is/As through the pipeline's fail-fast path.
func TestWatermarkErrorUnwrapsThroughPipeline(t *testing.T) {
	base := goroutineBaseline()
	sentinel := errors.New("disk on fire")
	src := &tsFailingSource{edges: tsEdges(50, 0), failWith: sentinel}
	wm := NewWatermarkSource(src, 4, LateDrop, nil)
	p, err := NewOrderedMultiPipeline(t.Context(), []TimestampedSource{wm}, 16)
	if err != nil {
		t.Fatal(err)
	}
	runErr := p.Run(func([]graph.Edge) error { return nil })
	p.Close()
	if !errors.Is(runErr, sentinel) {
		t.Fatalf("run error %v does not wrap sentinel", runErr)
	}
	assertNoLeak(t, base)
}

// tsFailingSource yields its edges then fails with a fixed error.
type tsFailingSource struct {
	edges    []TimestampedEdge
	pos      int
	failWith error
}

func (s *tsFailingSource) NextTimestamped() (TimestampedEdge, error) {
	if s.pos >= len(s.edges) {
		return TimestampedEdge{}, s.failWith
	}
	e := s.edges[s.pos]
	s.pos++
	return e, nil
}
