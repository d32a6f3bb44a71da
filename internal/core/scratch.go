package core

import (
	"slices"

	"streamtri/internal/graph"
)

// The bulk algorithm's per-batch index, keyed like Algorithm 3's tables
// by what the estimators wait for: the endpoints of their level-1 edges
// (at most 2r vertices) and the closing pairs of their open wedges (at
// most r pairs). The batch itself is only streamed past these tables,
// so every hash table holds O(min(r, w)) entries however large w is.
// The index draws no random number, so the shards of a ShardedCounter
// add their queries to one index and pay each pass over the batch once.
// absorb (bulk.go) builds it in phases around the estimator passes:
//
//   - begin:  vbits, a bitmap over the batch's endpoint hashes that
//     answers "not a batch vertex" without a hash probe;
//   - query:  after each counter's Step 1 has fixed its r1s, the level-1
//     endpoints that pass vbits are interned (in, with a bitmap of their
//     own, qbits), and the estimators with such an endpoint are listed
//     for Step 2 (touched);
//   - scan:   one pass over the batch gives each query vertex its final
//     batch degree (verts) and its occurrence list, a CSR (occ) holding
//     the batch positions at which it reaches each degree, so an EVENTB
//     subscription resolves with one read;
//   - Step 2 (level2) registers each open wedge's closing pair in pairs;
//   - closeWedges: a second pass over the batch records each registered
//     pair's last batch position, which settles every wedge.
//
// Everything is epoch-stamped or length-reset, so steady-state batches
// perform zero heap allocations.

// nextPow2 returns the smallest power of two >= max(n, floor); floor must
// itself be a power of two. Shared by every scratch table's sizing.
func nextPow2(n, floor int) int {
	p := floor
	for p < n {
		p <<= 1
	}
	return p
}

// packPair packs two original vertex ids into one canonical uint64 key
// (order-insensitive, so it identifies an undirected vertex pair). The
// pair table is keyed by original ids, not interned ones, because wedge
// endpoints may predate the batch.
func packPair(a, b uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// bitset is a bitmap over hash values: a filter with no false
// negatives, which answers most "not in the set" questions without a
// hash probe.
type bitset struct {
	words []uint64
	mask  uint32
}

// reset empties the set and sizes it to bits, a power of two ≥ 64.
func (b *bitset) reset(bits int) {
	b.words = slices.Grow(b.words[:0], bits/64)[:bits/64]
	clear(b.words)
	b.mask = uint32(bits - 1)
}

func (b *bitset) add(hash uint32) {
	i := hash & b.mask
	b.words[i>>6] |= 1 << (i & 63)
}

func (b *bitset) has(hash uint32) bool {
	i := hash & b.mask
	return b.words[i>>6]&(1<<(i&63)) != 0
}

// pairTable holds the closing pairs the estimators wait for and, for
// each, the last batch position at which it occurs. Pairs are registered
// first and the batch is streamed past them after, so the table holds at
// most one entry per estimator. A bitmap over the registered pairs'
// hashes lets most batch edges skip the hash probe. Slots are
// epoch-stamped so begin is O(1) apart from clearing the bitmap, and
// every array is reused.
type pairTable struct {
	epoch uint32
	mask  uint32
	slots []pairSlot
	bits  bitset
}

type pairSlot struct {
	key   uint64
	epoch uint32
	last  int32
}

// begin starts a new batch of at most `capacity` distinct pairs. The
// table stays at load factor ≤ 1/2 and the bitmap has 16 bits per pair.
func (t *pairTable) begin(capacity int) {
	need := nextPow2(2*capacity, 16)
	if need > len(t.slots) {
		t.slots = make([]pairSlot, need)
		t.epoch = 0
	}
	t.mask = uint32(need - 1)
	t.epoch++
	if t.epoch == 0 {
		clear(t.slots)
		t.epoch = 1
	}
	t.bits.reset(nextPow2(16*capacity, 64))
}

// register returns key's slot, adding key with no position (-1) if it is
// not registered yet.
func (t *pairTable) register(key uint64) uint32 {
	hash := hash64(key)
	t.bits.add(uint32(hash))
	h := uint32(hash>>32) & t.mask
	for {
		s := &t.slots[h]
		if s.epoch != t.epoch {
			*s = pairSlot{key: key, epoch: t.epoch, last: -1}
			return h
		}
		if s.key == key {
			return h
		}
		h = (h + 1) & t.mask
	}
}

// see records that key occurs at batch position i, if key is registered.
// Positions arrive in increasing order, so the stored one is always the
// last.
func (t *pairTable) see(key uint64, i int32) {
	hash := hash64(key)
	if !t.bits.has(uint32(hash)) {
		return
	}
	h := uint32(hash>>32) & t.mask
	for {
		s := &t.slots[h]
		if s.epoch != t.epoch {
			return
		}
		if s.key == key {
			s.last = i
			return
		}
		h = (h + 1) & t.mask
	}
}

// last returns the last batch position seen for the pair in slot s, or
// -1 if the pair does not occur in the batch.
func (t *pairTable) last(s uint32) int32 { return t.slots[s].last }

// batchVertex is one query vertex: its final batch degree and where its
// occurrences start in batchIndex.occ.
type batchVertex struct {
	deg, start uint32
}

// vertexHit is one batch endpoint that is a query vertex: the batch
// position and the vertex's interned id.
type vertexHit struct {
	pos, id uint32
}

// touched is an estimator Step 2 must visit because one of its level-1
// endpoints is a query vertex, with the query ids of both endpoints
// (noVertex for one outside the batch).
type touched struct {
	est  *Estimator
	u, v uint32
}

// noVertex is the query id of a level-1 endpoint outside the batch.
const noVertex = ^uint32(0)

// openWedge is an estimator's wedge waiting for its closing pair, which
// is registered in slot; the wedge closes if the pair occurs in the
// batch at a position after `after` (-1: anywhere in the batch).
type openWedge struct {
	est   *Estimator
	slot  uint32
	after int32
}

// batchIndex is the query-keyed index of one batch; see the file
// comment. Its footprint is O(min(r, w)), the batch share of Theorem
// 3.5's O(r + w), apart from the hit list and the occurrence lists: they
// hold one entry per batch endpoint that is a query vertex, at most 2w.
type batchIndex struct {
	// vbits holds the batch vertices and qbits the query vertices, each
	// sized at 16 bits per vertex for 2·min(r, w) vertices. Most level-1
	// endpoints are untouched once m ≫ w, and vbits rejects them in one
	// probe; most batch endpoints are not query vertices, and qbits
	// rejects them in one probe. When w > r the batch has more vertices
	// than vbits is sized for; its extra false positives only intern a
	// few more query vertices (never more than 2r) and watch a few more
	// wedges, and the smaller bitmap stays in cache.
	vbits bitset
	qbits bitset
	in    interner
	// touched lists, counter by counter, the estimators Step 2 visits;
	// ends[k] is where the k-th counter's entries end.
	touched []touched
	ends    []int
	verts   []batchVertex
	hits    []vertexHit
	occ     []uint32
	pairs   pairTable
	wedges  []openWedge
}

// begin starts the index of batch for r estimators in all: it builds
// the batch-vertex bitmap and empties the query tables.
func (x *batchIndex) begin(batch []graph.Edge, r int) {
	k := 2 * min(r, len(batch))
	x.vbits.reset(nextPow2(16*k, 1024))
	for _, e := range batch {
		x.vbits.add(hash32(e.U))
		x.vbits.add(hash32(e.V))
	}
	x.qbits.reset(nextPow2(16*k, 1024))
	x.in.begin(k)
	x.touched, x.ends = x.touched[:0], x.ends[:0]
	x.pairs.begin(r)
	x.wedges = x.wedges[:0]
}

// query runs after c's Step 1 and interns the level-1 endpoints of c's
// estimators that may be batch vertices. An estimator with such an
// endpoint goes on the touched list, in estimator order. Any other
// estimator has c⁺ = 0, so Step 2 would draw nothing for it and only
// watch its open wedge; query watches the wedge itself. An estimator
// that adopted a batch edge in Step 1 has its r1 at a batch position;
// the endpoints of that batch edge are interned, so that even a damaged
// restored state stays inside the index.
func (x *batchIndex) query(c *Counter, batch []graph.Edge) {
	mOld := c.m
	total := mOld + uint64(len(batch))
	for idx := range c.ests {
		est := &c.ests[idx]
		if !est.hasR1 {
			continue
		}
		r1 := est.r1
		if est.r1Pos > mOld && est.r1Pos <= total {
			r1 = batch[est.r1Pos-mOld-1]
		}
		u, v := x.intern(r1.U), x.intern(r1.V)
		if u == noVertex && v == noVertex {
			x.watchRetained(est)
			continue
		}
		x.touched = append(x.touched, touched{est: est, u: u, v: v})
	}
	x.ends = append(x.ends, len(x.touched))
}

// intern returns v's query id, interning v if it may be a batch vertex,
// or noVertex if it is not one.
func (x *batchIndex) intern(v graph.NodeID) uint32 {
	if h := hash32(v); x.vbits.has(h) {
		x.qbits.add(h)
		return x.in.internHashed(v, h)
	}
	return noVertex
}

// scan streams the batch past the query vertices: it counts each one's
// batch degree, then lays its occurrence list out in occ. A self loop
// on a query vertex counts twice, at the same position.
func (x *batchIndex) scan(batch []graph.Edge) {
	n := x.in.size()
	x.verts = slices.Grow(x.verts[:0], n)[:n]
	clear(x.verts)
	x.hits = x.hits[:0]
	for i, e := range batch {
		x.hit(e.U, uint32(i))
		x.hit(e.V, uint32(i))
	}
	// Counting sort of the hits by vertex: each start first points one
	// past the vertex's list and is walked back while the hits are
	// placed in reverse, which leaves every list in batch order.
	var end uint32
	for id := range x.verts {
		end += x.verts[id].deg
		x.verts[id].start = end
	}
	x.occ = slices.Grow(x.occ[:0], int(end))[:end]
	for k := len(x.hits) - 1; k >= 0; k-- {
		h := x.hits[k]
		x.verts[h.id].start--
		x.occ[x.verts[h.id].start] = h.pos
	}
}

// hit counts batch endpoint v, at position i, if it is a query vertex.
func (x *batchIndex) hit(v graph.NodeID, i uint32) {
	h := hash32(v)
	if !x.qbits.has(h) {
		return
	}
	if id, ok := x.in.lookupHashed(v, h); ok {
		x.verts[id].deg++
		x.hits = append(x.hits, vertexHit{pos: i, id: id})
	}
}

// degree returns the final batch degree of the query vertex with id
// id, or 0 for noVertex.
func (x *batchIndex) degree(id uint32) uint32 {
	if id == noVertex {
		return 0
	}
	return x.verts[id].deg
}

// rank returns how many occurrences of query vertex v precede batch
// position bi: v's batch degree just before the edge at bi.
func (x *batchIndex) rank(v, bi uint32) uint32 {
	vt := x.verts[v]
	k, _ := slices.BinarySearch(x.occ[vt.start:vt.start+vt.deg], bi)
	return uint32(k)
}

// reach returns the batch position at which query vertex v reaches
// batch degree d (1 ≤ d ≤ v's final batch degree): where EVENTB(v, d)
// fires.
func (x *batchIndex) reach(v, d uint32) uint32 {
	return x.occ[x.verts[v].start+d-1]
}

// watch registers est's wedge, whose outer endpoints are u and v, to
// close if the batch holds the edge {u, v} at a position after `after`.
// A wedge with an endpoint outside the batch cannot close, and the
// bitmap drops most of those without a hash probe.
func (x *batchIndex) watch(est *Estimator, u, v graph.NodeID, after int32) {
	if !x.vbits.has(hash32(u)) || !x.vbits.has(hash32(v)) {
		return
	}
	x.wedges = append(x.wedges, openWedge{est: est, slot: x.pairs.register(packPair(u, v)), after: after})
}

// watchRetained registers the open wedge of an estimator that keeps its
// pre-batch level-2 edge: any occurrence of the closing edge in the
// batch arrives after r2 and closes the wedge. This replaces the
// per-batch re-subscription into table Q.
func (x *batchIndex) watchRetained(est *Estimator) {
	if !est.hasR2 || est.hasT {
		return
	}
	if sh, ok := est.r1.SharedVertex(est.r2); ok {
		x.watch(est, est.r1.Other(sh), est.r2.Other(sh), -1)
	}
}

// closeWedges streams the batch past the registered closing pairs and
// settles every open wedge.
func (x *batchIndex) closeWedges(batch []graph.Edge) {
	if len(x.wedges) == 0 {
		return
	}
	for i, e := range batch {
		x.pairs.see(packPair(e.U, e.V), int32(i))
	}
	for _, ow := range x.wedges {
		ow.est.hasT = x.pairs.last(ow.slot) > ow.after
	}
}
