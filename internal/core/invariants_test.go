package core

import (
	"fmt"
	"testing"

	"streamtri/internal/gen"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

// checkStateInvariants verifies, deterministically, that every estimator's
// state is consistent with the definitions of Section 3.1 for the exact
// stream that was played:
//
//   - r1 is an edge of the stream at position r1Pos;
//   - c equals |N(r1)| = #edges adjacent to r1 arriving after r1Pos;
//   - hasR2 iff c > 0, r2 ∈ N(r1), and r2Pos > r1Pos;
//   - hasT iff the wedge's closing edge exists at a position > r2Pos.
//
// This holds for ANY random choices, so it validates both the sequential
// and the bulk implementation without statistical tolerance.
func checkStateInvariants(t *testing.T, edges []graph.Edge, c *Counter) {
	t.Helper()
	pos := make(map[graph.Edge]uint64, len(edges))
	for i, e := range edges {
		pos[e.Canonical()] = uint64(i + 1)
	}
	for idx := range c.Estimators() {
		est := &c.Estimators()[idx]
		r1, r1Pos, ok := est.Level1()
		if !ok {
			if len(edges) > 0 {
				t.Fatalf("estimator %d has no level-1 edge on a non-empty stream", idx)
			}
			continue
		}
		if p, found := pos[r1.Canonical()]; !found || p != r1Pos {
			t.Fatalf("estimator %d: r1 %v@%d not in stream (found=%v, p=%d)", idx, r1, r1Pos, found, p)
		}
		// Exact |N(r1)|.
		var wantC uint64
		for i, e := range edges {
			if uint64(i+1) > r1Pos && e.Adjacent(r1) {
				wantC++
			}
		}
		if est.C() != wantC {
			t.Fatalf("estimator %d: c = %d, want |N(r1)| = %d (r1=%v@%d)", idx, est.C(), wantC, r1, r1Pos)
		}
		r2, r2Pos, hasR2 := est.Level2()
		if hasR2 != (wantC > 0) {
			t.Fatalf("estimator %d: hasR2 = %v but |N(r1)| = %d", idx, hasR2, wantC)
		}
		if !hasR2 {
			if est.HasTriangle() {
				t.Fatalf("estimator %d: triangle without r2", idx)
			}
			continue
		}
		if p, found := pos[r2.Canonical()]; !found || p != r2Pos {
			t.Fatalf("estimator %d: r2 %v@%d not in stream", idx, r2, r2Pos)
		}
		if r2Pos <= r1Pos {
			t.Fatalf("estimator %d: r2Pos %d <= r1Pos %d", idx, r2Pos, r1Pos)
		}
		if !r2.Adjacent(r1) {
			t.Fatalf("estimator %d: r2 %v not adjacent to r1 %v", idx, r2, r1)
		}
		// Closing edge existence and order.
		s, ok := r1.SharedVertex(r2)
		if !ok {
			t.Fatalf("estimator %d: r1/r2 share no vertex", idx)
		}
		closer := graph.Edge{U: r1.Other(s), V: r2.Other(s)}.Canonical()
		closerPos, exists := pos[closer]
		wantT := exists && closerPos > r2Pos
		if est.HasTriangle() != wantT {
			t.Fatalf("estimator %d: hasT = %v, want %v (closer %v at %d, r2Pos %d)",
				idx, est.HasTriangle(), wantT, closer, closerPos, r2Pos)
		}
	}
	checkIndexInvariants(t, c)
}

// checkIndexInvariants verifies c's batch index, once it has been
// built:
//
//   - the table's slots hold the ids 0 to size−1, once each;
//   - unless the index is stale, every estimator with an r1 has cached
//     ids that name r1's endpoints;
//   - every key's hash is set in the filter;
//   - no more keys were interned since the last rebuild than its bound,
//     r/4 for r estimators;
//   - the hash table kept the size a rebuild gives it, 4r slots, so it
//     never grew.
func checkIndexInvariants(t *testing.T, c *Counter) {
	t.Helper()
	x, r := &c.idx, len(c.ests)
	if x.build == 0 {
		return
	}
	keys := make([]graph.NodeID, x.in.size)
	seen := make([]bool, x.in.size)
	n := 0
	for _, s := range x.in.slots {
		if s.id1 == 0 {
			continue
		}
		id := int(s.id1 - 1)
		if id >= x.in.size || seen[id] {
			t.Fatalf("a slot holds id %d, which is a repeat or not below size %d", id, x.in.size)
		}
		keys[id], seen[id] = s.key, true
		n++
	}
	if n != x.in.size {
		t.Fatalf("%d slots in use, want size %d", n, x.in.size)
	}
	for i := range c.ests {
		est := &c.ests[i]
		if x.stale || !est.hasR1() {
			continue
		}
		ids := x.ids[i]
		if int(max(ids.u, ids.v)) >= x.in.size || keys[ids.u] != est.r1.U || keys[ids.v] != est.r1.V {
			t.Fatalf("estimator %d: cached ids %v do not name r1 %v", i, ids, est.r1)
		}
	}
	for id, v := range keys {
		if x.filter.test(hash32(v)) == 0 {
			t.Fatalf("key %d (vertex %d) is not in the filter", id, v)
		}
	}
	if added := x.in.size - x.built; added > r/4 || x.limit != r/4 {
		t.Fatalf("%d keys interned since the last rebuild, bound %d, want at most r/4 = %d", added, x.limit, r/4)
	}
	if got, want := len(x.in.slots), nextPow2(4*r, 16); got != want {
		t.Fatalf("index table has %d slots, want the rebuilt %d", got, want)
	}
}

func testStreams(seed uint64) map[string][]graph.Edge {
	rng := randx.New(seed)
	return map[string][]graph.Edge{
		"figure1":   figure1Stream(),
		"er":        stream.Shuffle(gen.ER(rng, 40, 150), rng),
		"holmekim":  stream.Shuffle(gen.HolmeKim(rng, 120, 3, 0.7), rng),
		"planted":   stream.Shuffle(gen.PlantedTriangles(rng, 12, 60, 40), rng),
		"complete":  stream.Shuffle(gen.Complete(12), rng),
		"path":      gen.Path(30),
		"singleton": {{U: 1, V: 2}},
	}
}

func TestSequentialStateInvariants(t *testing.T) {
	for name, edges := range testStreams(1) {
		t.Run(name, func(t *testing.T) {
			c := NewCounter(200, 99)
			for _, e := range edges {
				c.Add(e)
			}
			if c.Edges() != uint64(len(edges)) {
				t.Fatalf("Edges() = %d", c.Edges())
			}
			checkStateInvariants(t, edges, c)
		})
	}
}

func TestBulkStateInvariants(t *testing.T) {
	for name, edges := range testStreams(2) {
		for _, w := range []int{1, 2, 7, 64, 1 << 20} {
			t.Run(fmt.Sprintf("%s/w=%d", name, w), func(t *testing.T) {
				c := NewCounter(200, 7)
				src := stream.NewSliceSource(edges)
				if err := stream.Batches(src, w, func(b []graph.Edge) error {
					c.AddBatch(b)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if c.Edges() != uint64(len(edges)) {
					t.Fatalf("Edges() = %d", c.Edges())
				}
				checkStateInvariants(t, edges, c)
			})
		}
	}
}

func TestBulkNoSkipStateInvariants(t *testing.T) {
	for name, edges := range testStreams(3) {
		t.Run(name, func(t *testing.T) {
			c := NewCounter(150, 13, WithoutLevel1Skip())
			src := stream.NewSliceSource(edges)
			if err := stream.Batches(src, 16, func(b []graph.Edge) error {
				c.AddBatch(b)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			checkStateInvariants(t, edges, c)
		})
	}
}

func TestMixedSequentialAndBulk(t *testing.T) {
	// Interleaving Add and AddBatch must preserve all invariants.
	edges := stream.Shuffle(gen.HolmeKim(randx.New(4), 150, 3, 0.6), randx.New(5))
	c := NewCounter(150, 21)
	i := 0
	for i < len(edges) {
		if i%3 == 0 && i+5 <= len(edges) {
			c.AddBatch(edges[i : i+5])
			i += 5
		} else {
			c.Add(edges[i])
			i++
		}
	}
	checkStateInvariants(t, edges, c)
}

func TestAddBatchEmpty(t *testing.T) {
	c := NewCounter(10, 1)
	c.AddBatch(nil)
	c.AddBatch([]graph.Edge{})
	if c.Edges() != 0 {
		t.Fatal("empty batches changed m")
	}
}

func TestNewCounterPanicsOnZeroR(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCounter(0, 1)
}
