package window

import (
	"math"
	"testing"

	"streamtri/internal/gen"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

func TestChainInvariantsMaintained(t *testing.T) {
	edges := stream.Shuffle(gen.HolmeKim(randx.New(1), 300, 3, 0.6), randx.New(2))
	c := NewCounter(50, 64, 3)
	for _, e := range edges {
		c.Add(e)
		if err := c.CheckChainInvariant(); err != nil {
			t.Fatal(err)
		}
	}
}

// headCounter is what the head-uniformity check needs from an engine.
type headCounter interface {
	Add(graph.Edge)
	HeadState(idx int) (pos uint64, hasT bool, ok bool)
}

// checkHeadUniform feeds a path stream to c (r estimators over windows of
// w) and checks, at every position in at, that the head is uniform over
// the window: each window position's count is within z = 4.5 binomial
// standard deviations of r/min(t, w).
func checkHeadUniform(t *testing.T, c headCounter, r int, w uint64, at []int) {
	t.Helper()
	const z = 4.5
	edges := gen.Path(at[len(at)-1] + 1)
	next := 0
	for i, e := range edges {
		c.Add(e)
		pos := i + 1
		if pos != at[next] {
			continue
		}
		next++
		m := min(uint64(pos), w)
		lo := uint64(pos) - m + 1
		counts := make([]int, m)
		for idx := 0; idx < r; idx++ {
			h, _, ok := c.HeadState(idx)
			if !ok || h < lo || h > uint64(pos) {
				t.Fatalf("w=%d t=%d: estimator %d head %d (ok=%v) outside window [%d, %d]", w, pos, idx, h, ok, lo, pos)
			}
			counts[h-lo]++
		}
		p := 1 / float64(m)
		want := float64(r) * p
		tol := z * math.Sqrt(float64(r)*p*(1-p))
		for j, n := range counts {
			if math.Abs(float64(n)-want) > tol {
				t.Errorf("w=%d t=%d: position %d is the head of %d estimators, want %.0f ± %.0f", w, pos, lo+uint64(j), n, want, tol)
			}
		}
	}
}

// headCheckpoints returns the positions the head-uniformity test checks
// for window w: half full (when that is before the window fills), just
// full, one past full, and deep into the stream.
func headCheckpoints(w uint64) []int {
	var at []int
	if half := int(w+1) / 2; uint64(half) < w {
		at = append(at, half)
	}
	return append(at, int(w), int(w)+1, 5*int(w)+2)
}

func TestHeadIsUniformOverWindow(t *testing.T) {
	// One counter of r estimators gives r independent head samples per
	// position. At w=2 a successor drawn from (pos, pos+w] instead of
	// (pos, pos+w-1] puts the newest edge at the head 60% of the time.
	const r = 40000
	for _, w := range []uint64{1, 2, 3, 16} {
		checkHeadUniform(t, NewCounter(r, w, 100+w), r, w, headCheckpoints(w))
		checkHeadUniform(t, newRefCounter(r, w, 100+w), r, w, headCheckpoints(w))
	}
}

func TestWindowForgetsOldTriangles(t *testing.T) {
	// Triangles at the start of the stream followed by >w triangle-free
	// edges: the estimate must return to exactly 0.
	tri := gen.Syn3Reg(10, 0)
	var tail []graph.Edge
	for _, e := range gen.Path(200) {
		tail = append(tail, graph.Edge{U: e.U + 5000, V: e.V + 5000})
	}
	c := NewCounter(300, 100, 5)
	for _, e := range append(append([]graph.Edge{}, tri...), tail...) {
		c.Add(e)
	}
	if got := c.EstimateTriangles(); got != 0 {
		t.Fatalf("estimate = %v after triangles expired", got)
	}
}

func TestWholeStreamWindowMatchesPlainCounter(t *testing.T) {
	// With w >= stream length the window estimator is ordinary
	// neighborhood sampling; its estimate must be near τ(G).
	edges := stream.Shuffle(gen.Syn3RegPaper(), randx.New(6))
	c := NewCounter(6000, uint64(len(edges))+10, 7)
	for _, e := range edges {
		c.Add(e)
	}
	got := c.EstimateTriangles()
	if math.Abs(got-1000) > 200 {
		t.Fatalf("estimate = %v, want 1000 ± 200", got)
	}
}

func TestMeanChainLengthConstant(t *testing.T) {
	// Once t ≥ w the head's age is uniform over the window and each
	// successor lies a uniform (0, w) step further, so the arrived chain
	// has 1 + ∫₀¹(eˣ−1)dx = e−1 ≈ 1.72 elements on average for large w,
	// whatever w is. r = 4000 puts the mean within ±0.04 (3 s.e.).
	const r = 4000
	for _, w := range []uint64{256, 65536} {
		c := NewCounter(r, w, 8)
		for _, e := range gen.Path(3*int(w) + 1) {
			c.Add(e)
		}
		if got := c.MeanChainLength(); math.Abs(got-(math.E-1)) > 0.1 {
			t.Errorf("w=%d: mean chain length = %v, want e−1 ≈ 1.72", w, got)
		}
	}
}

func TestWindowSmallerThanStreamInvariants(t *testing.T) {
	edges := stream.Shuffle(gen.Syn3Reg(30, 10), randx.New(9))
	for _, w := range []uint64{1, 2, 10, 1000} {
		c := NewCounter(20, w, 10)
		for _, e := range edges {
			c.Add(e)
		}
		if err := c.CheckChainInvariant(); err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
	}
}

func TestHugeWindowNeverExpires(t *testing.T) {
	// Regression: the expiry test used the addition form pos+w <= t,
	// which wraps for w near MaxUint64 and expired every chain element
	// on arrival. For windows this large nothing ever expires, the window
	// is the whole stream, and no scheduled position may wrap below the
	// element that scheduled it: a draw beyond the stream-position bound
	// becomes "never".
	edges := stream.Shuffle(gen.HolmeKim(randx.New(11), 300, 3, 0.6), randx.New(12))
	for _, w := range []uint64{math.MaxUint64, 1 << 63} {
		c := NewCounter(40, w, 13)
		prev := make([]uint64, len(c.ests))
		for _, e := range edges {
			c.Add(e)
			for i := range c.ests {
				est := &c.ests[i]
				h, tail := est.chain[0], est.chain[len(est.chain)-1]
				if h.pos != prev[i] && h.pos != c.t {
					t.Fatalf("w=%d t=%d: estimator %d lost head %d without a replacement", w, c.t, i, prev[i])
				}
				prev[i] = h.pos
				if after(h.pos, w) != never {
					t.Fatalf("w=%d t=%d: estimator %d head at %d has an expiry", w, c.t, i, h.pos)
				}
				if est.next <= tail.pos || est.replace <= c.t {
					t.Fatalf("w=%d t=%d: estimator %d schedules next=%d replace=%d behind its tail %d", w, c.t, i, est.next, est.replace, tail.pos)
				}
			}
			if err := c.CheckChainInvariant(); err != nil {
				t.Fatalf("w=%d: %v", w, err)
			}
		}
		if got := c.WindowEdges(); got != uint64(len(edges)) {
			t.Fatalf("w=%d: WindowEdges = %d, want the whole stream %d", w, got, len(edges))
		}
	}
}

func TestNewCounterPanics(t *testing.T) {
	for _, tc := range []struct{ r, w int }{{0, 5}, {5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for r=%d w=%d", tc.r, tc.w)
				}
			}()
			NewCounter(tc.r, uint64(tc.w), 1)
		}()
	}
}

func TestVertexFilterOneSlot(t *testing.T) {
	// Vertex ids whose hashes share their top 16 bits, found by searching
	// over the hash, land in one filter slot at every table size up to
	// 2^16 slots, so that slot counts every key of the index. A filter
	// that lost count of them would skip level-2 observations, which no
	// accuracy test is sharp enough to see. Every live chain element's c
	// must equal the number of later edges adjacent to it, and the counter
	// must track one fed the same stream on the ids 0..23.
	var ids []graph.NodeID
	for v := graph.NodeID(1); len(ids) < 24; v++ {
		if vertexHash(v)>>16 == vertexHash(1)>>16 {
			ids = append(ids, v)
		}
	}
	plain := stream.Shuffle(gen.ER(randx.New(21), 24, 180), randx.New(22))
	edges := make([]graph.Edge, len(plain))
	for i, e := range plain {
		edges[i] = graph.Edge{U: ids[e.U], V: ids[e.V]}
	}
	for _, w := range []uint64{1, 7, 40, 1000} {
		c, ref := NewCounter(15, w, 23), NewCounter(15, w, 23)
		for i, e := range edges {
			c.Add(e)
			ref.Add(plain[i])
			if err := c.CheckChainInvariant(); err != nil {
				t.Fatalf("w=%d t=%d: %v", w, c.t, err)
			}
			if got, want := c.EstimateTriangles(), ref.EstimateTriangles(); got != want {
				t.Fatalf("w=%d t=%d: estimate %v on one-slot ids, %v on ids 0..23", w, c.t, got, want)
			}
			for idx := range c.ests {
				for _, el := range c.ests[idx].chain {
					var want uint64
					for _, f := range edges[el.pos:c.t] {
						if f.Adjacent(el.e) {
							want++
						}
					}
					if el.c != want {
						t.Fatalf("w=%d t=%d: element at %d observed %d later adjacent edges, want %d", w, c.t, el.pos, el.c, want)
					}
				}
			}
		}
		for _, v := range ids {
			if c.filter.slot(v) != c.filter.slot(ids[0]) {
				t.Fatalf("w=%d: ids %d and %d in different slots of %d", w, v, ids[0], len(c.filter.counts))
			}
		}
	}
}

// BenchmarkWindowAddBatch prices the engine per edge at window-reads'
// shape: r = 64 over a window of 100000, in 512-edge batches of a
// Holme–Kim stream with perfbench's 8 edges per vertex and triad
// probability 0.5, after a first window has filled.
func BenchmarkWindowAddBatch(b *testing.B) {
	const batch = 512
	edges := gen.HolmeKim(randx.New(31), 45000, 8, 0.5)
	c := NewCounter(64, 100000, 32)
	warm := 200000
	c.AddBatch(edges[:warm])
	b.SetBytes(8 * batch)
	b.ResetTimer()
	for i, lo := 0, warm; i < b.N; i++ {
		if lo+batch > len(edges) {
			lo = 0
		}
		c.AddBatch(edges[lo : lo+batch])
		lo += batch
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/edge")
}
