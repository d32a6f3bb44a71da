package core

import (
	"slices"

	"streamtri/internal/freelist"
	"streamtri/internal/graph"
)

// The bulk algorithm's index, keyed like Algorithm 3's tables by what
// the estimators wait for: the endpoints of their level-1 edges (at most
// 2r vertices) and the closing pairs of their open wedges (at most r
// pairs). The batch itself is only streamed past these tables, once.
// The index draws no random number. It comes in two parts. A counter
// keeps the O(r) one, its keys (batchIndex), across batches. The tables
// built over one batch (batchTables) are O(w), and each AddBatch call
// borrows a set from a process-wide free list and hands it back before
// it returns. Counter.AddBatch (bulk.go) drives the index in phases
// around the estimator passes:
//
//   - Step 1 (level1): the endpoints of every batch edge an estimator
//     adopts are interned (in, with a filter over their hashes, filter),
//     and the estimator's cached ids (ids) name them. The keys stay
//     across batches, so the index always holds every r1 endpoint;
//   - rebuild: when the index is stale (a fresh or restored counter, an
//     Add since the last batch, or more than r/4 keys interned since the
//     last rebuild), the keys are interned afresh from the estimators'
//     r1s;
//   - scan:   one pass over the batch gives each key its final batch
//     degree (verts) and its occurrence list, a CSR (occ) holding the
//     batch positions at which it reaches each degree, so an EVENTB
//     subscription resolves with one read. The hits it records on the
//     way are every batch position holding a key;
//   - Step 2 (level2) walks the estimators in order and registers each
//     open wedge's closing pair in pairs;
//   - closeWedges: the hit positions are streamed past the registered
//     pairs, which records each pair's last batch position and settles
//     every wedge.
//
// scan, which asks the interner about every batch endpoint, runs over
// chunks of the batch's endpoints in two passes. The filter pass
// (filterChunk, filter.go) hashes every endpoint and keeps each one that
// passes filter as a candidate, its 4-byte index among the endpoints:
// on CPUs with AVX2 an assembly kernel does it eight endpoints at a
// time, and elsewhere a Go loop that advances by the filter test instead
// of branching on it. The probe pass then reads each candidate's
// endpoint back, hashes it again and looks it up, in batch order.
// Probed one at a time, each endpoint would be a branch the CPU cannot
// predict and a cache miss it waits on; a chunk's probes are
// independent, so their misses overlap. The candidates keep batch
// order, so the tables come out as one pass would leave them.
// closeWedges probes the pair table once per distinct hit position; the
// same two passes there measured no gain beyond run-to-run spread, so
// it probes one position at a time.
//
// Everything is kept, epoch-stamped or length-reset, in the counter or
// in the listed table sets, so steady-state batches, rebuilds included,
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

// bitset is a bitmap over hash values: the pair table's filter, with no
// false negatives, which answers most "not in the set" questions without
// a hash probe.
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

// has reports whether hash's bit is set.
func (b *bitset) has(hash uint32) bool {
	i := hash & b.mask
	return b.words[i>>6]>>(i&63)&1 == 1
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

// batchVertex is one key: its final batch degree and where its
// occurrences start in batchIndex.occ.
type batchVertex struct {
	deg, start uint32
}

// vertexHit is one batch endpoint that is a key: the batch position and
// the key's id. Positions are 32 bits, here and in the occurrence lists,
// and scan's candidates pack position·2 + side into 32 bits, so a batch
// must hold fewer than 2^31 edges.
type vertexHit struct {
	pos, id uint32
}

// vertexIDs are the index's ids of an estimator's two level-1
// endpoints, in r1's order.
type vertexIDs struct {
	u, v uint32
}

// openWedge is estimator est's wedge waiting for its closing pair,
// which is registered in slot; the wedge closes if the pair occurs in
// the batch at a position after `after` (-1: anywhere in the batch).
// The estimator is named by its index, so a listed table set points
// into no counter.
type openWedge struct {
	est   uint32
	slot  uint32
	after int32
}

// probeChunk is how many batch endpoints (probeChunk/2 edges) scan's
// filter pass takes at a time, and so how many candidates it may keep
// before the probe pass looks them up. A candidate is the endpoint's
// 4-byte index, so they stay in L1 (8 KiB), and a chunk gives the probe
// pass enough independent lookups for the CPU to overlap their cache
// misses.
const probeChunk = 2048

// batchIndex is the part of the index a counter keeps; see the file
// comment. Its keys are the level-1 endpoints of the counter's r
// estimators, at most 2r live ones plus at most r/4 interned since the
// last rebuild whose estimators have moved on, so its footprint is
// O(r), the estimator share of Theorem 3.5's O(r + w).
type batchIndex struct {
	// in holds the keys, and filter is a two-bit filter over their
	// hashes (keyFilter) of 32 bits per estimator, so about 16 per key
	// at a rebuild, which rejects most batch endpoints in one probe.
	// Both are kept across batches until the next rebuild.
	in     interner
	filter keyFilter
	// ids caches, per estimator, the ids of its level-1 endpoints; they
	// are current unless stale is set.
	ids []vertexIDs
	// build counts rebuilds, 0 before the first. built is in's size at
	// the last rebuild and limit the number of keys it may intern after
	// that; stale marks a rebuild as due before the next scan.
	build uint64
	built int
	limit int
	stale bool
	// batchTables is the table set AddBatch borrowed for the batch in
	// hand, nil between calls.
	*batchTables
}

// batchTables are the tables built over one batch: the keys' batch
// degrees and occurrence lists, the hits, the open wedges with their
// closing pairs, and scan's candidates. The hit list and the
// occurrence lists hold one entry per batch endpoint that is a key, at
// most 2w, the pair table and the wedge list at most r entries, and the
// candidates a fixed probeChunk (8 KiB): the O(w) share of
// Theorem 3.5's space is needed for one call only. The sets live in
// tableSets, each sized by the largest batch it has served.
type batchTables struct {
	verts  []batchVertex
	hits   []vertexHit
	occ    []uint32
	pairs  pairTable
	wedges []openWedge
	cands  []uint32 // probeChunk candidates of scan's filter pass
}

// tableSets lists the idle table sets: as many as AddBatch calls ever
// ran at once, in any counters.
var tableSets = freelist.List[*batchTables]{New: func(int) *batchTables {
	return &batchTables{cands: make([]uint32, probeChunk)}
}}

// intern returns v's id, interning v and adding it to the filter.
func (x *batchIndex) intern(v graph.NodeID) uint32 {
	h := hash32(v)
	x.filter.add(h)
	return x.in.internHashed(v, h)
}

// endpoints returns the ids of e's endpoints, interning them.
func (x *batchIndex) endpoints(e graph.Edge) vertexIDs {
	return vertexIDs{x.intern(e.U), x.intern(e.V)}
}

// adopt interns e, the batch edge estimator idx adopted in Step 1, and
// caches its endpoints' ids. Once more than limit keys were interned
// since the last rebuild it marks the index stale and interns no more:
// the rebuild after Step 1 re-interns every r1, so one batch with many
// adoptions cannot grow the table.
func (x *batchIndex) adopt(idx int, e graph.Edge) {
	if x.stale {
		return
	}
	x.ids[idx] = x.endpoints(e)
	if x.in.size-x.built > x.limit {
		x.stale = true
	}
}

// rebuild empties the index and interns the level-1 endpoints of the r
// estimators ests, making every cached id current. It costs O(r), and
// apart from fresh or restored counters and Add it follows more than r/4
// interned keys, at least r/8 adoptions, so it is O(1) per adoption.
// Stale keys stay until here; exact reference counts with deletion would
// drop them sooner, at a cost on every adoption.
func (x *batchIndex) rebuild(ests []Estimator) {
	r := len(ests)
	x.in.begin(2 * r)
	x.filter.reset(nextPow2(32*r, 1024))
	x.build++
	if len(x.ids) != r {
		x.ids = make([]vertexIDs, r)
	}
	for i := range ests {
		if est := &ests[i]; est.hasR1() {
			x.ids[i] = x.endpoints(est.r1)
		}
	}
	x.built, x.limit, x.stale = x.in.size, r/4, false
}

// scan streams the batch past the keys: it counts each one's batch
// degree, then lays its occurrence list out in occ. A self loop on a
// key counts twice, at the same position. It also empties the pair
// table for at most r open wedges. The batch's endpoints go by in chunks
// of probeChunk, each in a filter pass (filterChunk) and a probe pass
// over the interner (see the file comment). It returns how many
// candidates the filter passes kept.
func (x *batchIndex) scan(batch []graph.Edge, r int) (candidates int) {
	// verts holds one entry per key; sizing it for every key the table
	// takes before it would grow keeps a set from growing it again. The
	// tables are held in locals for the loops: through the embedded
	// pointer, every access would reload them.
	n := x.in.size
	verts := slices.Grow(x.verts[:0], x.in.capacity())[:n]
	clear(verts)
	eps := batchEndpoints(batch)
	hits, cands := x.hits[:0], x.cands
	for lo := 0; lo < len(eps); lo += probeChunk {
		k := filterChunk(eps[lo:min(lo+probeChunk, len(eps))], uint32(lo), &x.filter, cands)
		for _, c := range cands[:k] {
			v := eps[c]
			if id, ok := x.in.lookupHashed(v, hash32(v)); ok {
				verts[id].deg++
				hits = append(hits, vertexHit{pos: c >> 1, id: id})
			}
		}
		candidates += k
	}
	// Counting sort of the hits by vertex: each start first points one
	// past the vertex's list and is walked back while the hits are
	// placed in reverse, which leaves every list in batch order.
	var end uint32
	for id := range verts {
		end += verts[id].deg
		verts[id].start = end
	}
	occ := slices.Grow(x.occ[:0], int(end))[:end]
	for k := len(hits) - 1; k >= 0; k-- {
		h := hits[k]
		verts[h.id].start--
		occ[verts[h.id].start] = h.pos
	}
	x.verts, x.hits, x.occ = verts, hits, occ
	x.pairs.begin(r)
	x.wedges = x.wedges[:0]
	return candidates
}

// degree returns the final batch degree of the key with id id.
func (x *batchIndex) degree(id uint32) uint32 { return x.verts[id].deg }

// rank returns how many occurrences of key v precede batch position bi:
// v's batch degree just before the edge at bi.
func (x *batchIndex) rank(v, bi uint32) uint32 {
	vt := x.verts[v]
	k, _ := slices.BinarySearch(x.occ[vt.start:vt.start+vt.deg], bi)
	return uint32(k)
}

// reach returns the batch position at which key v reaches batch degree
// d (1 ≤ d ≤ v's final batch degree): where EVENTB(v, d) fires.
func (x *batchIndex) reach(v, d uint32) uint32 {
	return x.occ[x.verts[v].start+d-1]
}

// watch registers the open wedge of est, estimator idx, to close if the
// batch holds its closing edge at a position after `after`. ids are the
// ids of r1's endpoints. The closing edge joins r1's outer endpoint,
// the one r2 does not share, to r2's; when the outer endpoint has batch
// degree 0 the closing edge is not in the batch, and the wedge stays
// open.
func (x *batchIndex) watch(est *Estimator, idx int, ids vertexIDs, after int32) {
	sh, ok := est.r1.SharedVertex(est.r2)
	if !ok {
		return
	}
	outer, id := est.r1.V, ids.v
	if sh != est.r1.U {
		outer, id = est.r1.U, ids.u
	}
	if x.degree(id) == 0 {
		return
	}
	x.wedges = append(x.wedges, openWedge{est: uint32(idx), slot: x.pairs.register(packPair(outer, est.r2.Other(sh))), after: after})
}

// watchRetained registers the open wedge of an estimator that keeps its
// pre-batch level-2 edge: any occurrence of the closing edge in the
// batch arrives after r2 and closes the wedge. This replaces the
// per-batch re-subscription into table Q.
func (x *batchIndex) watchRetained(est *Estimator, idx int, ids vertexIDs) {
	if est.hasR2() && !est.hasT() {
		x.watch(est, idx, ids, -1)
	}
}

// closeWedges streams the batch positions in the hit list past the
// registered closing pairs and settles every open wedge of ests, the
// estimators the wedges name. Every registered pair contains r1's
// outer endpoint, a key (watch), so every batch position that holds a
// registered pair holds a hit of that key. The hits come in batch
// order, so their distinct positions are every position that can hold
// a registered pair, in increasing order, and each pair's stored
// position is its last one.
func (x *batchIndex) closeWedges(batch []graph.Edge, ests []Estimator) {
	if len(x.wedges) == 0 {
		return
	}
	prev := ^uint32(0)
	for _, h := range x.hits {
		if h.pos == prev {
			continue
		}
		prev = h.pos
		e := batch[h.pos]
		x.pairs.see(packPair(e.U, e.V), int32(h.pos))
	}
	for _, ow := range x.wedges {
		ests[ow.est].setT(x.pairs.last(ow.slot) > ow.after)
	}
}
