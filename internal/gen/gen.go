// Package gen produces synthetic edge streams. The paper evaluates on SNAP
// social graphs, which are not redistributable here; these generators are
// the substitutes, and internal/bench builds one stand-in per evaluation
// graph from them. They are parameterized so
// that each stand-in matches the regime that drives the algorithms'
// behaviour: edge count m, maximum degree Δ, triangle count τ, and the
// m·Δ/τ ratio that governs estimator count requirements (Theorem 3.3).
package gen

import (
	"fmt"
	"slices"

	"streamtri/internal/graph"
	"streamtri/internal/randx"
)

// Complete returns the edge list of the complete graph K_n.
func Complete(n int) []graph.Edge {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v)})
		}
	}
	return edges
}

// Path returns a path on n vertices (n-1 edges).
func Path(n int) []graph.Edge {
	var edges []graph.Edge
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{U: graph.NodeID(i), V: graph.NodeID(i + 1)})
	}
	return edges
}

// Cycle returns a cycle on n vertices (n >= 3).
func Cycle(n int) []graph.Edge {
	edges := Path(n)
	if n >= 3 {
		edges = append(edges, graph.Edge{U: graph.NodeID(n - 1), V: 0})
	}
	return edges
}

// Star returns a star K_{1,n}: vertex 0 joined to 1..n.
func Star(n int) []graph.Edge {
	var edges []graph.Edge
	for i := 1; i <= n; i++ {
		edges = append(edges, graph.Edge{U: 0, V: graph.NodeID(i)})
	}
	return edges
}

// ER returns a uniform random simple graph with n vertices and m distinct
// edges (Erdős–Rényi G(n,m)). It panics if m exceeds C(n,2).
func ER(rng *randx.Source, n int, m int) []graph.Edge {
	maxM := uint64(n) * uint64(n-1) / 2
	if uint64(m) > maxM {
		panic(fmt.Sprintf("gen: ER(%d,%d) wants more edges than C(n,2)=%d", n, m, maxM))
	}
	seen := make(map[graph.Edge]struct{}, m)
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		u := graph.NodeID(rng.Uint64N(uint64(n)))
		v := graph.NodeID(rng.Uint64N(uint64(n)))
		if u == v {
			continue
		}
		e := graph.Edge{U: u, V: v}.Canonical()
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		edges = append(edges, e)
	}
	return edges
}

// Syn3Reg builds a 3-regular triangle-rich graph out of disjoint K4 and
// triangular-prism gadgets: k4 copies of K4 (4 vertices, 6 edges, 4
// triangles each) and prisms copies of K3×K2 (6 vertices, 9 edges, 2
// triangles each).
//
// Syn3Reg(125, 250) reproduces the exact parameters of the paper's
// "Syn 3-reg" dataset from Table 1: n=2000, m=3000, Δ=3, τ=1000, and
// mΔ/τ = 9.
func Syn3Reg(k4, prisms int) []graph.Edge {
	var edges []graph.Edge
	next := graph.NodeID(0)
	for i := 0; i < k4; i++ {
		a, b, c, d := next, next+1, next+2, next+3
		next += 4
		edges = append(edges,
			graph.Edge{U: a, V: b}, graph.Edge{U: a, V: c}, graph.Edge{U: a, V: d},
			graph.Edge{U: b, V: c}, graph.Edge{U: b, V: d}, graph.Edge{U: c, V: d})
	}
	for i := 0; i < prisms; i++ {
		// Two triangles a-b-c and d-e-f joined by a matching.
		a, b, c, d, e, f := next, next+1, next+2, next+3, next+4, next+5
		next += 6
		edges = append(edges,
			graph.Edge{U: a, V: b}, graph.Edge{U: b, V: c}, graph.Edge{U: a, V: c},
			graph.Edge{U: d, V: e}, graph.Edge{U: e, V: f}, graph.Edge{U: d, V: f},
			graph.Edge{U: a, V: d}, graph.Edge{U: b, V: e}, graph.Edge{U: c, V: f})
	}
	return edges
}

// Syn3RegPaper returns the paper's Table 1 synthetic 3-regular graph:
// n=2000, m=3000, τ=1000.
func Syn3RegPaper() []graph.Edge { return Syn3Reg(125, 250) }

// HolmeKim generates a power-law graph with tunable triangle density via
// the Holme–Kim model: growing preferential attachment where, after each
// preferential attachment step, the next link is made to a random
// neighbor of the previous target with probability pTriad (a "triad
// formation" step, which closes a triangle).
//
// n is the final vertex count, mPer the number of edges added per new
// vertex, and pTriad in [0,1] the triad-formation probability. Larger
// pTriad raises τ; pTriad = 0 degenerates to Barabási–Albert. The result
// is a connected simple graph with m ≈ (n-m0)·mPer edges and a power-law
// degree tail (large Δ).
func HolmeKim(rng *randx.Source, n, mPer int, pTriad float64) []graph.Edge {
	if mPer < 1 {
		panic("gen: HolmeKim needs mPer >= 1")
	}
	m0 := mPer + 1 // seed clique size
	if n < m0 {
		panic(fmt.Sprintf("gen: HolmeKim needs n >= %d", m0))
	}
	edges := Complete(m0)
	// endpoint multiset for degree-proportional sampling: every edge
	// contributes both endpoints, so sampling a uniform entry is sampling
	// a vertex with probability deg(v)/2m.
	endpoints := make([]graph.NodeID, 0, 2*(n-m0)*mPer+2*len(edges))
	// adj[v] lists v's neighbours; vertex ids are 0..n-1.
	adj := make([][]graph.NodeID, n)
	link := func(u, v graph.NodeID) {
		endpoints = append(endpoints, u, v)
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for _, e := range edges {
		link(e.U, e.V)
	}

	// linked holds the targets of the current vertex, at most mPer, so
	// a linear scan finds a repeat.
	linked := make([]graph.NodeID, 0, mPer)
	for v := graph.NodeID(m0); v < graph.NodeID(n); v++ {
		linked = linked[:0]
		var prev graph.NodeID
		havePrev := false
		for len(linked) < mPer {
			var target graph.NodeID
			if havePrev && rng.Float64() < pTriad {
				// Triad step: random neighbor of the previous target.
				nbrs := adj[prev]
				target = nbrs[rng.Uint64N(uint64(len(nbrs)))]
			} else {
				// Preferential attachment step.
				target = endpoints[rng.Uint64N(uint64(len(endpoints)))]
			}
			if target == v || slices.Contains(linked, target) {
				// Collision: resample. Termination is guaranteed because
				// mPer < m0 ≤ number of existing vertices, so an unlinked
				// target always exists and PA steps reach it.
				continue
			}
			linked = append(linked, target)
			edges = append(edges, graph.Edge{U: v, V: target})
			link(v, target)
			prev, havePrev = target, true
		}
	}
	return edges
}

// BarabasiAlbert is HolmeKim with no triad-formation steps: a pure
// preferential-attachment power-law graph (large hubs, relatively few
// triangles). Used as the high-Δ, high-mΔ/τ "Youtube-like" regime.
func BarabasiAlbert(rng *randx.Source, n, mPer int) []graph.Edge {
	return HolmeKim(rng, n, mPer, 0)
}

// ClusteredRegular generates the stand-in for the paper's "Synthetic
// ~d-regular" dataset: nClusters disjoint dense ER pockets of clusterSize
// vertices with intra-cluster edge probability p. Degrees concentrate
// around p·(clusterSize-1) (narrow, non-power-law degree band) and the
// dense pockets supply a high triangle count, which is what gives the
// paper's synthetic graph its small mΔ/τ ratio.
func ClusteredRegular(rng *randx.Source, nClusters, clusterSize int, p float64) []graph.Edge {
	var edges []graph.Edge
	base := graph.NodeID(0)
	for c := 0; c < nClusters; c++ {
		for i := 0; i < clusterSize; i++ {
			for j := i + 1; j < clusterSize; j++ {
				if rng.Float64() < p {
					edges = append(edges, graph.Edge{U: base + graph.NodeID(i), V: base + graph.NodeID(j)})
				}
			}
		}
		base += graph.NodeID(clusterSize)
	}
	return edges
}

// HubGraph builds a high-Δ, triangle-poor graph: nHubs hub vertices each
// connected to leavesPerHub distinct leaves, plus extra random leaf-leaf
// edges. A small pClose fraction of leaf pairs under the same hub are
// joined, so τ > 0 but mΔ/τ stays large — the Youtube regime in Figure 3.
func HubGraph(rng *randx.Source, nHubs, leavesPerHub int, pClose float64) []graph.Edge {
	var edges []graph.Edge
	next := graph.NodeID(nHubs)
	for h := 0; h < nHubs; h++ {
		hub := graph.NodeID(h)
		first := next
		for i := 0; i < leavesPerHub; i++ {
			edges = append(edges, graph.Edge{U: hub, V: next})
			next++
		}
		// Close a sparse random subset of consecutive leaf pairs.
		for leaf := first; leaf+1 < next; leaf++ {
			if rng.Float64() < pClose {
				edges = append(edges, graph.Edge{U: leaf, V: leaf + 1})
			}
		}
	}
	return edges
}

// PlantedTriangles returns t vertex-disjoint triangles followed by extra
// random non-adjacent "noise" edges on a separate vertex range. Exact
// τ = t regardless of noise, handy for estimator-accuracy tests.
func PlantedTriangles(rng *randx.Source, t, noiseNodes, noiseEdges int) []graph.Edge {
	var edges []graph.Edge
	next := graph.NodeID(0)
	for i := 0; i < t; i++ {
		a, b, c := next, next+1, next+2
		next += 3
		edges = append(edges, graph.Edge{U: a, V: b}, graph.Edge{U: b, V: c}, graph.Edge{U: a, V: c})
	}
	if noiseEdges > 0 {
		base := uint64(next)
		seen := map[graph.Edge]struct{}{}
		for len(seen) < noiseEdges {
			u := graph.NodeID(base + rng.Uint64N(uint64(noiseNodes)))
			v := graph.NodeID(base + rng.Uint64N(uint64(noiseNodes)))
			if u == v {
				continue
			}
			e := graph.Edge{U: u, V: v}.Canonical()
			if _, dup := seen[e]; dup {
				continue
			}
			seen[e] = struct{}{}
			edges = append(edges, e)
		}
		// Strip any noise edge that accidentally closed a triangle so the
		// planted count stays exact.
		edges = removeTriangleClosers(edges, t*3)
	}
	return edges
}

// removeTriangleClosers scans edges[from:] and removes any edge that
// completes a triangle with earlier edges, preserving order.
func removeTriangleClosers(edges []graph.Edge, from int) []graph.Edge {
	adj := make(map[graph.NodeID]map[graph.NodeID]struct{})
	link := func(u, v graph.NodeID) {
		if adj[u] == nil {
			adj[u] = make(map[graph.NodeID]struct{})
		}
		adj[u][v] = struct{}{}
	}
	closes := func(e graph.Edge) bool {
		nu, nv := adj[e.U], adj[e.V]
		if len(nu) > len(nv) {
			nu, nv = nv, nu
		}
		for w := range nu {
			if _, ok := nv[w]; ok {
				return true
			}
		}
		return false
	}
	out := edges[:from]
	for _, e := range edges[:from] {
		link(e.U, e.V)
		link(e.V, e.U)
	}
	for _, e := range edges[from:] {
		if closes(e) {
			continue
		}
		link(e.U, e.V)
		link(e.V, e.U)
		out = append(out, e)
	}
	return out
}

// IndexGadget constructs the Theorem 3.13 lower-bound graph G*. Alice's
// part: a triangle on (a0, b0, c0) and, for each set bit i of x, the edge
// (a_i, b_i). If query >= 0, Bob's two edges (b_k, c_k), (c_k, a_k) for
// k = query are appended at the end of the stream. The resulting graph has
// two triangles iff x[query] is set, and one otherwise.
//
// Vertex numbering: a_i = 3i, b_i = 3i+1, c_i = 3i+2.
func IndexGadget(x []bool, query int) []graph.Edge {
	a := func(i int) graph.NodeID { return graph.NodeID(3 * i) }
	b := func(i int) graph.NodeID { return graph.NodeID(3*i + 1) }
	c := func(i int) graph.NodeID { return graph.NodeID(3*i + 2) }
	edges := []graph.Edge{
		{U: a(0), V: b(0)}, {U: b(0), V: c(0)}, {U: c(0), V: a(0)},
	}
	for i, bit := range x {
		if bit {
			edges = append(edges, graph.Edge{U: a(i + 1), V: b(i + 1)})
		}
	}
	if query >= 0 {
		k := query + 1
		edges = append(edges, graph.Edge{U: b(k), V: c(k)}, graph.Edge{U: c(k), V: a(k)})
	}
	return edges
}
