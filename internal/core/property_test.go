package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

// randomSimpleStream decodes raw fuzz bytes into a simple edge stream on
// up to 32 vertices.
func randomSimpleStream(raw []uint16) []graph.Edge {
	seen := map[graph.Edge]bool{}
	var edges []graph.Edge
	for i := 0; i+1 < len(raw); i += 2 {
		u, v := graph.NodeID(raw[i]%32), graph.NodeID(raw[i+1]%32)
		if u == v {
			continue
		}
		e := graph.Edge{U: u, V: v}.Canonical()
		if seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	return edges
}

// exactStateConsistent re-derives every invariant of checkStateInvariants
// as a boolean (for quick.Check): c = |N(r1)|, r2 ∈ N(r1), triangle flag
// matches the closing edge's existence and position.
func exactStateConsistent(edges []graph.Edge, c *Counter) bool {
	pos := make(map[graph.Edge]uint64, len(edges))
	for i, e := range edges {
		pos[e.Canonical()] = uint64(i + 1)
	}
	for idx := range c.Estimators() {
		est := &c.Estimators()[idx]
		r1, r1Pos, ok := est.Level1()
		if !ok {
			if len(edges) > 0 {
				return false
			}
			continue
		}
		if p, found := pos[r1.Canonical()]; !found || p != r1Pos {
			return false
		}
		var wantC uint64
		for i, e := range edges {
			if uint64(i+1) > r1Pos && e.Adjacent(r1) {
				wantC++
			}
		}
		if est.C() != wantC {
			return false
		}
		r2, r2Pos, hasR2 := est.Level2()
		if hasR2 != (wantC > 0) {
			return false
		}
		if !hasR2 {
			if est.HasTriangle() {
				return false
			}
			continue
		}
		if p, found := pos[r2.Canonical()]; !found || p != r2Pos || r2Pos <= r1Pos || !r2.Adjacent(r1) {
			return false
		}
		s, shared := r1.SharedVertex(r2)
		if !shared {
			return false
		}
		closer := graph.Edge{U: r1.Other(s), V: r2.Other(s)}.Canonical()
		closerPos, exists := pos[closer]
		if est.HasTriangle() != (exists && closerPos > r2Pos) {
			return false
		}
	}
	return true
}

// Property: for ANY simple stream and ANY batch segmentation, the bulk
// counter's final state is internally consistent with the stream — for a
// flat counter, and for the one a sharded checkpoint taken halfway
// restores as, which continues on shard 0's RNG. Batches of up to 64
// edges over 32 vertices give the batch index repeated high-degree
// vertices within one batch. The restored counter's first batch rebuilds
// its index, and it must equal, byte for byte, a twin restored from the
// same checkpoint and then restored again before every batch, whose
// index is built afresh every time.
func TestPropertyBulkStateConsistency(t *testing.T) {
	f := func(raw [256]uint16, n uint8, seed uint64, wRaw, pRaw, optRaw uint8) bool {
		edges := randomSimpleStream(raw[:n])
		w := int(wRaw%64) + 1
		var opts []Option
		if optRaw%2 == 1 {
			opts = append(opts, WithoutLevel1Skip())
		}
		c := NewCounter(40, seed)
		shards := newShardSet(40, int(pRaw%4)+1, seed, opts...)
		var sc, twin *Counter
		for lo := 0; lo < len(edges); lo += w {
			hi := min(lo+w, len(edges))
			c.AddBatch(edges[lo:hi])
			if sc == nil {
				shards.AddBatch(edges[lo:hi])
				if 2*hi >= len(edges) {
					sc, twin = shards.convert(t), shards.convert(t)
				}
				continue
			}
			sc.AddBatch(edges[lo:hi])
			twin = restoreState(t, twin).(*Counter)
			twin.AddBatch(edges[lo:hi])
		}
		if sc == nil {
			sc, twin = shards.convert(t), shards.convert(t)
		}
		return c.Edges() == uint64(len(edges)) && exactStateConsistent(edges, c) &&
			sc.Edges() == uint64(len(edges)) && exactStateConsistent(edges, sc) &&
			bytes.Equal(encodeState(t, sc), encodeState(t, twin))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: self loops are outside the simple-stream contract, but
// AddBatch and NewSliceSource pass them through, so a batch carrying one
// must not panic a flat counter or one restored from a fresh sharded
// checkpoint. A self loop raises its vertex's batch degree twice in one
// edge; every degree it passes must still resolve to a batch position.
func TestPropertyBulkSelfLoopsNoPanic(t *testing.T) {
	f := func(raw []uint16, seed uint64, wRaw, pRaw uint8) bool {
		var edges []graph.Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.Edge{U: graph.NodeID(raw[i] % 8), V: graph.NodeID(raw[i+1] % 8)})
		}
		// Always carry at least one loop, on a vertex with other edges.
		edges = append(edges, graph.Edge{U: 1, V: 2}, graph.Edge{U: 2, V: 2}, graph.Edge{U: 2, V: 3})
		w := int(wRaw%16) + 1
		c := NewCounter(500, seed)
		sc := newShardSet(500, int(pRaw%4)+1, seed).convert(t)
		if err := stream.Batches(stream.NewSliceSource(edges), w, func(b []graph.Edge) error {
			c.AddBatch(b)
			sc.AddBatch(b)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.Edges() == uint64(len(edges)) && sc.Edges() == uint64(len(edges))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the sequential counter is likewise always consistent.
func TestPropertySequentialStateConsistency(t *testing.T) {
	f := func(raw []uint16, seed uint64) bool {
		edges := randomSimpleStream(raw)
		c := NewCounter(40, seed)
		for _, e := range edges {
			c.Add(e)
		}
		return exactStateConsistent(edges, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: c never exceeds 2Δ (the bound used in Theorem 3.3 and the
// unifTri acceptance step).
func TestPropertyCounterBoundedByTwiceMaxDegree(t *testing.T) {
	f := func(raw []uint16, seed uint64) bool {
		edges := randomSimpleStream(raw)
		deg := map[graph.NodeID]uint64{}
		var maxDeg uint64
		for _, e := range edges {
			deg[e.U]++
			deg[e.V]++
			if deg[e.U] > maxDeg {
				maxDeg = deg[e.U]
			}
			if deg[e.V] > maxDeg {
				maxDeg = deg[e.V]
			}
		}
		c := NewCounter(25, seed)
		c.AddBatch(edges)
		for i := range c.Estimators() {
			if c.Estimators()[i].C() > 2*maxDeg {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle estimates are always nonnegative and zero whenever
// the stream has no triangles.
func TestPropertyTriangleFreeStreamsEstimateZero(t *testing.T) {
	f := func(raw []uint8, seed uint64) bool {
		// Build a forest: edge i connects vertex i+1 to a random earlier
		// vertex — acyclic, hence triangle-free.
		var edges []graph.Edge
		for i, b := range raw {
			parent := graph.NodeID(uint64(b) % uint64(i+1))
			edges = append(edges, graph.Edge{U: parent, V: graph.NodeID(i + 1)})
		}
		c := NewCounter(30, seed)
		c.AddBatch(edges)
		return c.EstimateTriangles() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: processing a stream as one batch or edge-by-edge yields the
// same m, and both modes keep every per-estimator estimate within the
// hard bound c·m ≤ 2Δ·m.
func TestPropertyEstimateWithinHardBound(t *testing.T) {
	f := func(raw []uint16, seed uint64) bool {
		edges := randomSimpleStream(raw)
		if len(edges) == 0 {
			return true
		}
		var maxDeg uint64
		deg := map[graph.NodeID]uint64{}
		for _, e := range edges {
			deg[e.U]++
			deg[e.V]++
		}
		for _, d := range deg {
			if d > maxDeg {
				maxDeg = d
			}
		}
		c := NewCounter(20, seed)
		c.AddBatch(edges)
		m := float64(len(edges))
		bound := 2 * float64(maxDeg) * m
		for _, x := range c.TriangleEstimates() {
			if x < 0 || x > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: wedge estimates averaged over estimators stay within the
// trivial bound m·2Δ and are zero only when no estimator has neighbors.
func TestPropertyWedgeEstimateSanity(t *testing.T) {
	f := func(raw []uint16, seed uint64) bool {
		edges := randomSimpleStream(raw)
		c := NewCounter(20, seed)
		for _, e := range edges {
			c.Add(e)
		}
		z := c.EstimateWedges()
		if z < 0 {
			return false
		}
		// Exact ζ upper bound: m edges → at most m·(m-1)/2... use the
		// loose bound z ≤ m·2m.
		m := float64(len(edges))
		return z <= 2*m*m+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two counters with the same seed stay bit-identical through
// arbitrary interleavings of Add and AddBatch boundaries... (the random
// stream consumption depends only on the edges seen, per implementation
// mode). Here both use the same mode, so equality must be exact.
func TestPropertyDeterminism(t *testing.T) {
	f := func(raw []uint16, seed uint64, wRaw uint8) bool {
		edges := randomSimpleStream(raw)
		w := int(wRaw%8) + 1
		a := NewCounter(15, seed)
		b := NewCounter(15, seed)
		for lo := 0; lo < len(edges); lo += w {
			hi := lo + w
			if hi > len(edges) {
				hi = len(edges)
			}
			a.AddBatch(edges[lo:hi])
			b.AddBatch(edges[lo:hi])
		}
		return a.EstimateTriangles() == b.EstimateTriangles() &&
			a.EstimateWedges() == b.EstimateWedges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: reservoir level-1 sampling is uniform — over many seeds, each
// stream position is selected as r1 with roughly equal frequency.
func TestPropertyLevel1Uniformity(t *testing.T) {
	edges := randomSimpleStream([]uint16{
		0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10,
	})
	n := len(edges)
	counts := make([]int, n)
	const trials = 30000
	rng := randx.New(9)
	for trial := 0; trial < trials; trial++ {
		var est Estimator
		for i, e := range edges {
			est.process(e, uint64(i+1), rng)
		}
		_, pos, ok := est.Level1()
		if !ok {
			t.Fatal("no level-1 edge")
		}
		counts[pos-1]++
	}
	want := float64(trials) / float64(n)
	for i, c := range counts {
		diff := float64(c) - want
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.15*want {
			t.Fatalf("position %d chosen %d times, want ≈%v", i+1, c, want)
		}
	}
}
