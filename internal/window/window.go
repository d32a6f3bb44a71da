// Package window implements Section 5.2 of the paper: triangle counting
// over a sequence-based sliding window of the most recent w edges
// (Theorem 5.8).
//
// Each estimator keeps its uniform window sample by Babcock–Datar–Motwani
// chain sampling. The edge at position s replaces an estimator's whole
// chain with probability 1/min(s, w). When an edge at pos joins a chain
// it draws the position of its successor uniformly from (pos, pos+w−1];
// the edge arriving there joins the chain in turn. When the head expires,
// its successor has already arrived and takes over, and it is again a
// uniform sample of the window (the proof is in the repository's doc.go).
// Every chain element carries its own level-2 reservoir over the edges
// that arrived after it, so the head is always a complete
// neighborhood-sampling state for the window graph.
//
// Nothing is done per estimator per edge. Replacements, successor
// arrivals and head expiries are scheduled positions on a calendar, and a
// vertex index over the live chain elements finds the elements adjacent
// to an arriving edge. An edge costs O(1 + adjacent elements + events due
// at its position); the expected chain length is e−1 < 2 for large w, so
// the state is O(r). A counting filter in front of the index answers most
// endpoints, those with no live element, so an edge that touches no live
// chain element costs one filter probe per endpoint and, mostly, no map
// lookup.
package window

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"streamtri/internal/graph"
	"streamtri/internal/randx"
)

// maxStreamPos bounds the stream position. 2^62 edges is decades of
// ingest at any real rate; the decoder rejects larger positions, which
// keeps t++ overflow unreachable.
const maxStreamPos = 1 << 62

// never is the scheduled position of an event that no stream reaches: a
// draw beyond maxStreamPos, or the successor of an element when w = 1.
const never = math.MaxUint64

// chainElem is one candidate level-1 edge with its own level-2 state.
type chainElem struct {
	e       graph.Edge
	pos     uint64 // arrival position, 1-based
	c       uint64 // |N(e)| among edges after pos
	r2      graph.Edge
	hasR2   bool
	hasT    bool
	dropped bool // left its chain; skipped until its vertex lists compact
}

// closesWedge reports whether f joins the outer endpoints of (e, r2).
func (el *chainElem) closesWedge(f graph.Edge) bool {
	s, ok := el.e.SharedVertex(el.r2)
	if !ok {
		return false
	}
	o1, o2 := el.e.Other(s), el.r2.Other(s)
	return (f.U == o1 && f.V == o2) || (f.U == o2 && f.V == o1)
}

// observe applies Algorithm 1's level-2 step for an adjacent edge f that
// arrived after el.
func (el *chainElem) observe(f graph.Edge, rng *randx.Source) {
	el.c++
	if rng.CoinOneIn(el.c) {
		el.r2, el.hasR2, el.hasT = f, true, false
		return
	}
	if el.hasR2 && !el.hasT && el.closesWedge(f) {
		el.hasT = true
	}
}

// estimator is one windowed neighborhood-sampling instance.
type estimator struct {
	chain   []*chainElem // head first, positions increasing
	next    uint64       // arrival position of the tail's successor, or never
	replace uint64       // position of the next chain replacement, or never
}

// head returns the current level-1 sample.
func (est *estimator) head() *chainElem {
	if len(est.chain) == 0 {
		return nil
	}
	return est.chain[0]
}

// Counter estimates the triangle count of the graph formed by the w most
// recent stream edges, using r independent windowed estimators.
type Counter struct {
	w    uint64
	t    uint64
	ests []estimator
	rng  *randx.Source

	// Derived from ests, rebuilt on restore, never serialized.
	cal    calendar
	adj    map[graph.NodeID]*vertexList
	filter vertexFilter // counts adj's keys by hash, in front of adj
	due    []int        // scratch: estimators with an event at t
}

// vertexList holds the chain elements incident to one vertex in (pos,
// estimator) order, the order in which the live engine indexes them.
// Elements that left their chains stay, skipped, until they are half of
// the list; then one pass drops them all, keeping the order.
type vertexList struct {
	elems []*chainElem
	dead  int
}

// NewCounter returns a sliding-window triangle counter over windows of w
// edges with r estimators.
func NewCounter(r int, w uint64, seed uint64) *Counter {
	if r < 1 || w < 1 {
		panic(fmt.Sprintf("window: NewCounter needs r >= 1 and w >= 1, got r=%d w=%d", r, w))
	}
	c := &Counter{w: w, ests: make([]estimator, r), rng: randx.New(seed)}
	for i := range c.ests {
		// The first edge replaces every chain: 1/min(1, w) = 1.
		c.ests[i] = estimator{next: never, replace: 1}
	}
	c.rebuild()
	return c
}

// rebuild derives the calendar and the vertex index from the chains.
func (c *Counter) rebuild() {
	c.cal = make(calendar, 0, len(c.ests))
	c.adj = make(map[graph.NodeID]*vertexList)
	c.filter = newVertexFilter(c.adj)
	type ref struct {
		el  *chainElem
		est int
	}
	var live []ref
	for i := range c.ests {
		c.cal = append(c.cal, event{at: c.dueAt(i), est: i})
		for _, el := range c.ests[i].chain {
			live = append(live, ref{el, i})
		}
	}
	heap.Init(&c.cal)
	// The live engine indexes elements as they arrive, in (pos,
	// estimator) order; rebuilding in that order reproduces its lists.
	slices.SortFunc(live, func(a, b ref) int {
		return cmp.Or(cmp.Compare(a.el.pos, b.el.pos), cmp.Compare(a.est, b.est))
	})
	for _, x := range live {
		c.index(x.el)
	}
}

// Add processes one stream edge. The work at position t runs in one
// fixed order — head expiries, level-2 updates, replacements, successor
// arrivals — and every phase visits estimators in index order and index
// lists in (pos, estimator) order, so the random draws are a function of
// the state and the edge alone: a restored counter continues exactly like
// the one that wrote the checkpoint.
func (c *Counter) Add(e graph.Edge) {
	c.t++
	t := c.t
	c.due = c.due[:0]
	for len(c.cal) > 0 && c.cal[0].at == t {
		c.due = append(c.due, heap.Pop(&c.cal).(event).est)
	}

	// Expire heads that left the window. The successor of an element at
	// pos arrives by pos+w−1, so the chain never empties here unless
	// w = 1, where the edge at t replaces it below.
	for _, i := range c.due {
		est := &c.ests[i]
		if h := est.head(); h != nil && t-h.pos >= c.w {
			c.drop(h)
			est.chain = slices.Delete(est.chain, 0, 1)
		}
	}

	// Level-2 updates of every live element adjacent to e (Algorithm 1
	// relative to that element as level-1 edge).
	if l := c.list(e.U); l != nil {
		for _, el := range l.elems {
			if !el.dropped {
				el.observe(e, c.rng)
			}
		}
	}
	if l := c.list(e.V); l != nil && e.V != e.U {
		for _, el := range l.elems {
			if !el.dropped && !el.e.Has(e.U) { // met through e.U already
				el.observe(e, c.rng)
			}
		}
	}

	// Replacements: e becomes the whole chain.
	for _, i := range c.due {
		est := &c.ests[i]
		if est.replace != t {
			continue
		}
		for _, el := range est.chain {
			c.drop(el)
		}
		clear(est.chain)
		est.chain = append(est.chain[:0], &chainElem{e: e, pos: t})
		est.next = c.successor(t)
		est.replace = c.nextReplacement(t)
	}

	// Successor arrivals: e joins the chain and schedules its own.
	for _, i := range c.due {
		est := &c.ests[i]
		if est.next != t {
			continue
		}
		est.chain = append(est.chain, &chainElem{e: e, pos: t})
		est.next = c.successor(t)
	}

	for _, i := range c.due {
		if ch := c.ests[i].chain; ch[len(ch)-1].pos == t {
			c.index(ch[len(ch)-1])
		}
		heap.Push(&c.cal, event{at: c.dueAt(i), est: i})
	}
}

// AddBatch processes a batch of stream edges in order, exactly as the
// same sequence of Add calls would.
func (c *Counter) AddBatch(batch []graph.Edge) {
	for _, e := range batch {
		c.Add(e)
	}
}

// successor draws the arrival position of the successor of an element
// at pos: uniform over (pos, pos+w−1], never when w = 1.
func (c *Counter) successor(pos uint64) uint64 {
	if c.w == 1 {
		return never
	}
	return after(pos, 1+c.rng.Uint64N(c.w-1))
}

// nextReplacement draws the position of the next chain replacement after
// t, where the edge at s replaces with probability 1/min(s, w).
func (c *Counter) nextReplacement(t uint64) uint64 {
	if t < c.w {
		// P(no replacement in (t, j]) = t/j for j ≤ w, so with U uniform
		// on (0, 1] the next replacement is ⌊t/U⌋+1 if that is ≤ w.
		x := math.Floor(float64(t)/(1-c.rng.Float64())) + 1
		if x <= float64(min(c.w, maxStreamPos)) {
			return max(uint64(x), t+1) // float64(t) rounds beyond 2^53
		}
		if c.w >= maxStreamPos {
			return never
		}
		// No replacement through w; from there on the rate is 1/w.
		t = c.w
	}
	return after(t+1, c.rng.Geometric(1/float64(c.w)))
}

// after returns pos+d, or never if that lies beyond maxStreamPos. It
// never wraps.
func after(pos, d uint64) uint64 {
	if pos > maxStreamPos || d > maxStreamPos-pos {
		return never
	}
	return pos + d
}

// dueAt returns the first position at which estimator i has work: its
// head's expiry, its successor's arrival or its next replacement.
func (c *Counter) dueAt(i int) uint64 {
	est := &c.ests[i]
	at := min(est.next, est.replace)
	if h := est.head(); h != nil {
		at = min(at, after(h.pos, c.w))
	}
	return at
}

// index appends el to the lists of its endpoints.
func (c *Counter) index(el *chainElem) {
	c.link(el.e.U, el)
	if el.e.V != el.e.U {
		c.link(el.e.V, el)
	}
}

// list returns v's vertex list, or nil. Most endpoints of a stream edge
// have none, and the filter answers those without the map lookup.
func (c *Counter) list(v graph.NodeID) *vertexList {
	if c.filter.counts[c.filter.slot(v)] == 0 {
		return nil
	}
	return c.adj[v]
}

func (c *Counter) link(v graph.NodeID, el *chainElem) {
	l := c.adj[v]
	if l == nil {
		l = &vertexList{}
		c.adj[v] = l
		if filterSlotsPerKey*len(c.adj) > len(c.filter.counts) {
			c.filter = newVertexFilter(c.adj)
		} else {
			c.filter.counts[c.filter.slot(v)]++
		}
	}
	l.elems = append(l.elems, el)
}

// drop marks el, which has left its chain, as dead in the lists of its
// endpoints.
func (c *Counter) drop(el *chainElem) {
	el.dropped = true
	c.release(el.e.U)
	if el.e.V != el.e.U {
		c.release(el.e.V)
	}
}

// release counts one more dead element in v's list and compacts the list
// once the dead are half of it, so removal costs O(1) amortized.
func (c *Counter) release(v graph.NodeID) {
	l := c.adj[v]
	if l.dead++; 2*l.dead < len(l.elems) {
		return
	}
	l.elems = slices.DeleteFunc(l.elems, func(el *chainElem) bool { return el.dropped })
	l.dead = 0
	if len(l.elems) == 0 {
		delete(c.adj, v)
		c.filter.counts[c.filter.slot(v)]--
	}
}

// vertexFilter counts the vertex index's keys by hash: counts[slot(v)] is
// the number of keys of c.adj that hash to v's slot, so a vertex whose
// slot is zero has no list. A count is never below the keys it stands
// for, so the filter has no false negatives, and it draws no random
// number: it skips only map lookups that would return nil.
//
// The table keeps at least filterSlotsPerKey slots per key, so at most
// one probe in that many for a vertex with no list finds its slot taken
// and falls through to the map. Its size follows the key count, which
// follows the random chain lengths, and stays O(r).
type vertexFilter struct {
	counts []uint32
	shift  uint // 32 − log2(len(counts))
}

// filterSlotsPerKey is the fewest slots per key the vertex filter keeps;
// link rebuilds it at twice that when the keys outgrow it. At r = 64 on
// a Holme–Kim stream of 8 edges per vertex (BenchmarkWindowAddBatch)
// the index holds about 210 keys, so the table has 4096 slots and 5% of
// probes pass it; at four slots per key it has 1024, 18% pass, and an
// edge costs more.
const filterSlotsPerKey = 8

// newVertexFilter returns a filter over adj's keys with at least
// 2·filterSlotsPerKey slots per key.
func newVertexFilter(adj map[graph.NodeID]*vertexList) vertexFilter {
	n := 64
	for n < 2*filterSlotsPerKey*len(adj) {
		n *= 2
	}
	f := vertexFilter{counts: make([]uint32, n), shift: uint(32 - bits.TrailingZeros(uint(n)))}
	for v := range adj {
		f.counts[f.slot(v)]++
	}
	return f
}

// slot returns v's slot: the top bits of a Fibonacci hash of v.
func (f *vertexFilter) slot(v graph.NodeID) uint32 {
	return vertexHash(v) >> f.shift
}

// vertexHash multiplies by an odd constant, a bijection on uint32.
func vertexHash(v graph.NodeID) uint32 { return v * 0x9E3779B9 }

// WindowEdges returns the number of edges currently in the window,
// min(t, w).
func (c *Counter) WindowEdges() uint64 {
	if c.t < c.w {
		return c.t
	}
	return c.w
}

// StreamLength returns the total number of edges processed so far (the
// stream position t); the window covers the last min(t, w) of them.
func (c *Counter) StreamLength() uint64 { return c.t }

// EstimateTriangles returns the mean over estimators of the Lemma 3.2
// estimate applied to the window: c·m_w if the head element holds a
// triangle, where m_w = min(t, w).
func (c *Counter) EstimateTriangles() float64 {
	mw := float64(c.WindowEdges())
	var sum float64
	for i := range c.ests {
		if h := c.ests[i].head(); h != nil && h.hasT {
			sum += float64(h.c) * mw
		}
	}
	return sum / float64(len(c.ests))
}

// MeanChainLength returns the average number of arrived chain elements
// per estimator — the per-estimator space factor, e−1 ≈ 1.72 in
// expectation once t ≥ w, for large w.
func (c *Counter) MeanChainLength() float64 {
	var sum int
	for i := range c.ests {
		sum += len(c.ests[i].chain)
	}
	return float64(sum) / float64(len(c.ests))
}

// checkElem verifies one element's own fields: a 1-based position and a
// level-2 state the reservoir can hold.
func checkElem(el *chainElem) error {
	switch {
	case el.pos == 0:
		return fmt.Errorf("position 0 outside stream")
	case el.hasR2 != (el.c > 0):
		return fmt.Errorf("level-2 state inconsistent (hasR2=%v, c=%d)", el.hasR2, el.c)
	case el.hasT && !el.hasR2:
		return fmt.Errorf("holds a triangle without a level-2 edge")
	case !el.hasR2 && el.r2 != (graph.Edge{}):
		return fmt.Errorf("carries a level-2 edge marked unset")
	}
	return nil
}

// checkChainInvariant verifies every estimator against the chain-sampling
// invariants: elements inside the window in increasing position (so each
// lies within its predecessor's successor range (pos, pos+w−1]), and the
// tail's successor and the next replacement still to come.
func (c *Counter) checkChainInvariant() error {
	for idx := range c.ests {
		est := &c.ests[idx]
		ch := est.chain
		if c.t == 0 {
			if len(ch) != 0 || est.next != never || est.replace != 1 {
				return fmt.Errorf("estimator %d: not fresh at stream position 0", idx)
			}
			continue
		}
		if len(ch) == 0 {
			return fmt.Errorf("estimator %d: empty chain on non-empty window", idx)
		}
		for i, el := range ch {
			if err := checkElem(el); err != nil {
				return fmt.Errorf("estimator %d: chain[%d]: %w", idx, i, err)
			}
			// Subtraction form: pos+w wraps for huge w.
			if el.pos > c.t {
				return fmt.Errorf("estimator %d: chain[%d] position %d outside stream of length %d", idx, i, el.pos, c.t)
			}
			if c.t-el.pos >= c.w {
				return fmt.Errorf("estimator %d: chain[%d] expired (pos=%d, t=%d, w=%d)", idx, i, el.pos, c.t, c.w)
			}
			if i > 0 && ch[i-1].pos >= el.pos {
				return fmt.Errorf("estimator %d: positions not increasing at chain[%d]", idx, i)
			}
		}
		tail := ch[len(ch)-1]
		if est.next == never {
			if c.w > 1 && c.w-1 <= maxStreamPos-tail.pos {
				return fmt.Errorf("estimator %d: no successor scheduled for position %d", idx, tail.pos)
			}
		} else if est.next <= c.t || est.next > maxStreamPos || est.next-tail.pos > c.w-1 {
			return fmt.Errorf("estimator %d: scheduled successor %d outside (t, pos+w-1] = (%d, %d+%d]", idx, est.next, c.t, tail.pos, c.w-1)
		}
		if est.replace <= c.t || (est.replace > maxStreamPos && est.replace != never) {
			return fmt.Errorf("estimator %d: next replacement %d not after t=%d", idx, est.replace, c.t)
		}
		if c.w == 1 && est.replace != after(c.t, 1) {
			return fmt.Errorf("estimator %d: next replacement %d, but at w=1 every edge replaces", idx, est.replace)
		}
	}
	return nil
}

// event is a calendar entry: estimator est has work at position at.
type event struct {
	at  uint64
	est int
}

// calendar is a min-heap (container/heap) of events ordered by (at, est),
// one entry per estimator, so the estimators due at a position pop in
// index order however the heap is laid out.
type calendar []event

func (h calendar) Len() int { return len(h) }
func (h calendar) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].est < h[j].est)
}
func (h calendar) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *calendar) Push(x any)   { *h = append(*h, x.(event)) }
func (h *calendar) Pop() any {
	ev := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return ev
}
