package window

import (
	"testing"
	"testing/quick"

	"streamtri/internal/graph"
)

// randomSimpleStream decodes raw bytes into a simple edge stream on up to
// 24 vertices.
func randomSimpleStream(raw []uint16) []graph.Edge {
	seen := map[graph.Edge]bool{}
	var edges []graph.Edge
	for i := 0; i+1 < len(raw); i += 2 {
		u, v := graph.NodeID(raw[i]%24), graph.NodeID(raw[i+1]%24)
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

// Property: for any stream and window size, the chain invariant holds
// after every single edge.
func TestPropertyChainInvariant(t *testing.T) {
	f := func(raw []uint16, seed uint64, wRaw uint8) bool {
		edges := randomSimpleStream(raw)
		w := uint64(wRaw%32) + 1
		c := NewCounter(10, w, seed)
		for _, e := range edges {
			c.Add(e)
			if c.CheckChainInvariant() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the head element's level-2 state is consistent with the
// suffix of the stream after the head's position — c equals the exact
// count of adjacent later edges, and the triangle flag matches the
// closing edge's position.
func TestPropertyHeadStateConsistent(t *testing.T) {
	f := func(raw []uint16, seed uint64, wRaw uint8) bool {
		edges := randomSimpleStream(raw)
		w := uint64(wRaw%64) + 1
		c := NewCounter(15, w, seed)
		for _, e := range edges {
			c.Add(e)
		}
		if len(edges) == 0 {
			return true
		}
		pos := make(map[graph.Edge]uint64, len(edges))
		for i, e := range edges {
			pos[e.Canonical()] = uint64(i + 1)
		}
		for idx := range c.ests {
			h := c.ests[idx].head()
			if h == nil {
				return false
			}
			// Exact |N(head)| over the whole remaining stream (all later
			// edges are in-window whenever the head is).
			var wantC uint64
			for i, e := range edges {
				if uint64(i+1) > h.pos && e.Adjacent(h.e) {
					wantC++
				}
			}
			if h.c != wantC {
				return false
			}
			if h.hasR2 != (wantC > 0) {
				return false
			}
			if !h.hasR2 {
				if h.hasT {
					return false
				}
				continue
			}
			s, ok := h.e.SharedVertex(h.r2)
			if !ok {
				return false
			}
			closer := graph.Edge{U: h.e.Other(s), V: h.r2.Other(s)}.Canonical()
			closerPos, exists := pos[closer]
			// r2 position is not stored per element; the closing edge
			// must at least exist after the head for hasT to be set.
			if h.hasT && (!exists || closerPos <= h.pos) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: the estimate is always nonnegative and bounded by
// m_w · 2Δ_w (the hard per-estimator bound applied to the window).
func TestPropertyWindowEstimateBounded(t *testing.T) {
	f := func(raw []uint16, seed uint64, wRaw uint8) bool {
		edges := randomSimpleStream(raw)
		w := uint64(wRaw%48) + 1
		c := NewCounter(10, w, seed)
		deg := map[graph.NodeID]uint64{}
		for _, e := range edges {
			c.Add(e)
			deg[e.U]++
			deg[e.V]++
		}
		var maxDeg uint64
		for _, d := range deg {
			if d > maxDeg {
				maxDeg = d
			}
		}
		est := c.EstimateTriangles()
		bound := float64(c.WindowEdges()) * 2 * float64(maxDeg)
		return est >= 0 && est <= bound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
