// Package graph provides the in-memory graph representation used by the
// exact counters, generators, and experiment harness. The streaming
// algorithms themselves never materialize a Graph; they consume edges one
// at a time (or in batches) and keep only estimator state.
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a vertex. Vertex identifiers are dense-ish small
// integers in generated graphs but need not be contiguous.
type NodeID = uint32

// Edge is an undirected edge between two vertices. The streaming model in
// the paper assumes a simple graph: no self loops, no parallel edges.
type Edge struct {
	U, V NodeID
}

// Canonical returns the edge with endpoints ordered so that U <= V.
// Canonical edges compare equal iff they denote the same undirected edge.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Has reports whether x is an endpoint of e.
func (e Edge) Has(x NodeID) bool { return e.U == x || e.V == x }

// Other returns the endpoint of e that is not x. It panics if x is not an
// endpoint.
func (e Edge) Other(x NodeID) NodeID {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: %v is not an endpoint of %v", x, e))
}

// SharedVertex returns the vertex shared by e and f and true, or 0 and
// false if the edges are vertex-disjoint. For edges that share both
// endpoints (parallel edges) it returns one of the shared endpoints.
func (e Edge) SharedVertex(f Edge) (NodeID, bool) {
	if f.Has(e.U) {
		return e.U, true
	}
	if f.Has(e.V) {
		return e.V, true
	}
	return 0, false
}

// Adjacent reports whether e and f share at least one endpoint.
func (e Edge) Adjacent(f Edge) bool {
	_, ok := e.SharedVertex(f)
	return ok
}

// IsLoop reports whether e is a self loop.
func (e Edge) IsLoop() bool { return e.U == e.V }

// Triangle is a set of three mutually adjacent vertices, stored sorted.
type Triangle struct {
	A, B, C NodeID
}

// MakeTriangle builds a Triangle from three vertices in any order.
func MakeTriangle(a, b, c NodeID) Triangle {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return Triangle{a, b, c}
}

// Graph is an undirected simple graph stored as sorted adjacency lists.
// Build one with NewBuilder / FromEdges.
type Graph struct {
	adj   map[NodeID][]NodeID
	m     uint64
	nodes []NodeID // sorted cache, built lazily
}

// FromEdges builds a Graph from an edge list. Self loops and duplicate
// edges are rejected with an error, matching the paper's simple-graph
// assumption.
func FromEdges(edges []Edge) (*Graph, error) {
	b := NewBuilder()
	for _, e := range edges {
		if err := b.Add(e); err != nil {
			return nil, err
		}
	}
	return b.Graph(), nil
}

// MustFromEdges is FromEdges but panics on error; intended for tests and
// generators whose output is simple by construction.
func MustFromEdges(edges []Edge) *Graph {
	g, err := FromEdges(edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Builder accumulates edges into a Graph, checking simplicity.
type Builder struct {
	adj map[NodeID]map[NodeID]struct{}
	m   uint64
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{adj: make(map[NodeID]map[NodeID]struct{})}
}

// Add inserts edge e. It returns an error for self loops and duplicates.
func (b *Builder) Add(e Edge) error {
	if e.IsLoop() {
		return fmt.Errorf("graph: self loop %v-%v", e.U, e.V)
	}
	if b.Has(e) {
		return fmt.Errorf("graph: duplicate edge %v-%v", e.U, e.V)
	}
	b.link(e.U, e.V)
	b.link(e.V, e.U)
	b.m++
	return nil
}

// Has reports whether edge e is already present.
func (b *Builder) Has(e Edge) bool {
	if set, ok := b.adj[e.U]; ok {
		_, dup := set[e.V]
		return dup
	}
	return false
}

// Degree returns the current degree of v.
func (b *Builder) Degree(v NodeID) int { return len(b.adj[v]) }

func (b *Builder) link(u, v NodeID) {
	set, ok := b.adj[u]
	if !ok {
		set = make(map[NodeID]struct{})
		b.adj[u] = set
	}
	set[v] = struct{}{}
}

// Graph freezes the builder into an immutable Graph with sorted adjacency
// lists. The builder remains usable afterwards.
func (b *Builder) Graph() *Graph {
	g := &Graph{adj: make(map[NodeID][]NodeID, len(b.adj)), m: b.m}
	for v, set := range b.adj {
		nbrs := make([]NodeID, 0, len(set))
		for u := range set {
			nbrs = append(nbrs, u)
		}
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		g.adj[v] = nbrs
	}
	return g
}

// NumNodes returns the number of vertices with at least one incident edge.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() uint64 { return g.m }

// Degree returns the degree of v (0 if v is unknown).
func (g *Graph) Degree(v NodeID) int { return len(g.adj[v]) }

// MaxDegree returns Δ, the maximum degree over all vertices (0 for the
// empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, nbrs := range g.adj {
		if len(nbrs) > max {
			max = len(nbrs)
		}
	}
	return max
}

// Neighbors returns the sorted adjacency list of v. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID { return g.adj[v] }

// HasEdge reports whether edge {u,v} exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	nbrs := g.adj[u]
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// Nodes returns all vertices in sorted order. The slice is cached and
// must not be modified.
func (g *Graph) Nodes() []NodeID {
	if g.nodes == nil {
		g.nodes = make([]NodeID, 0, len(g.adj))
		for v := range g.adj {
			g.nodes = append(g.nodes, v)
		}
		sort.Slice(g.nodes, func(i, j int) bool { return g.nodes[i] < g.nodes[j] })
	}
	return g.nodes
}

// Edges returns every edge exactly once in canonical (U<V) form, sorted.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	for _, u := range g.Nodes() {
		for _, v := range g.adj[u] {
			if u < v {
				edges = append(edges, Edge{u, v})
			}
		}
	}
	return edges
}

// DegreeHistogram returns a map from degree to the number of vertices with
// that degree. This backs Figure 3's frequency-vs-degree plots.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for _, nbrs := range g.adj {
		h[len(nbrs)]++
	}
	return h
}

// CommonNeighbors returns the sorted intersection of the neighbor lists of
// u and v.
func (g *Graph) CommonNeighbors(u, v NodeID) []NodeID {
	a, b := g.adj[u], g.adj[v]
	var out []NodeID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Validate checks structural invariants (symmetry, sortedness, no loops)
// and returns the first violation found. A healthy graph returns nil; this
// exists to catch generator bugs in tests.
func (g *Graph) Validate() error {
	var m2 uint64
	for v, nbrs := range g.adj {
		for i, u := range nbrs {
			if u == v {
				return fmt.Errorf("graph: self loop at %v", v)
			}
			if i > 0 && nbrs[i-1] >= u {
				return fmt.Errorf("graph: adjacency of %v not strictly sorted", v)
			}
			if !g.HasEdge(u, v) {
				return fmt.Errorf("graph: asymmetric edge %v-%v", v, u)
			}
			m2++
		}
	}
	if m2 != 2*g.m {
		return fmt.Errorf("graph: edge count %d inconsistent with adjacency size %d", g.m, m2)
	}
	return nil
}
