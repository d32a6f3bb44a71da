package core

import "streamtri/internal/graph"

// The bulk algorithm's per-batch tables. None of them depends on an
// estimator or draws a random number: they are a function of the batch
// alone, so they form one read-only batch index. A flat Counter builds
// its own index; a ShardedCounter builds one per batch and every shard
// reads it, so p shards pay the O(w) build once. The per-estimator pass
// (bulk.go) only reads the index:
//
//   - in, verts: the interner over the batch's endpoints, and each
//     interned vertex's final batch degree;
//   - edges:     each batch edge's interned endpoints and their running
//     batch degrees just after it — β for an estimator that adopts the
//     edge (Observation 3.6);
//   - occ:       the occurrence list, a CSR over interned ids: the batch
//     position at which vertex v reaches batch degree d, so an EVENTB
//     subscription resolves with one read;
//   - last:      the batch-edge table, canonical vertex pair -> last batch
//     position (the paper's table Q, inverted);
//   - vbits:     a bitmap over vertex hashes that answers "not a batch
//     vertex" without a hash probe.
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
// batch-edge table is keyed by original ids, not interned ones, because
// wedge endpoints may predate the batch.
func packPair(a, b uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// pairTable maps a packed vertex pair to the last batch position at which
// that pair occurs. Slots are epoch-stamped so begin is O(1) and the
// backing array is reused. It never grows: begin sizes it for `capacity`
// distinct pairs at load factor ≤ 1/2, and a batch of w edges holds at
// most w pairs.
type pairTable struct {
	epoch uint32
	mask  uint32
	slots []pairSlot
}

type pairSlot struct {
	key   uint64
	epoch uint32
	last  int32
}

// begin starts a new batch of at most `capacity` distinct pairs.
func (t *pairTable) begin(capacity int) {
	need := nextPow2(2*capacity, 16)
	if need > len(t.slots) {
		t.slots = make([]pairSlot, need)
		t.mask = uint32(need - 1)
		t.epoch = 0
	}
	t.epoch++
	if t.epoch == 0 {
		clear(t.slots)
		t.epoch = 1
	}
}

// put records that key occurs at batch position i. Positions arrive in
// increasing order, so the stored one is always the last.
func (t *pairTable) put(key uint64, i int32) {
	h := uint32(hash64(key)) & t.mask
	for {
		s := &t.slots[h]
		if s.epoch != t.epoch {
			*s = pairSlot{key: key, epoch: t.epoch, last: i}
			return
		}
		if s.key == key {
			s.last = i
			return
		}
		h = (h + 1) & t.mask
	}
}

// get returns the last batch position of key, or -1 if it does not occur.
func (t *pairTable) get(key uint64) int32 {
	h := uint32(hash64(key)) & t.mask
	for {
		s := &t.slots[h]
		if s.epoch != t.epoch {
			return -1
		}
		if s.key == key {
			return s.last
		}
		h = (h + 1) & t.mask
	}
}

// batchVertex is one interned batch vertex: its final batch degree and
// where its occurrences start in batchIndex.occ.
type batchVertex struct {
	deg, start uint32
}

// batchEdge is one batch edge's interned endpoints and their running
// batch degrees just after the edge.
type batchEdge struct {
	u, v   uint32
	du, dv uint32
}

// batchIndex is the read-only index of one batch; see the file comment.
// Footprint is O(w), the batch share of Theorem 3.5's O(r + w).
type batchIndex struct {
	in    interner
	verts []batchVertex
	edges []batchEdge
	occ   []uint32
	last  pairTable
	// vbits has ~16 bits per batch vertex, which keeps the false-positive
	// rate in the low percent while staying O(w) bytes. Most level-1
	// endpoints are untouched once m ≫ w, and the bitmap rejects them in
	// one probe.
	vbits    []uint64
	vbitMask uint32
}

// build indexes batch, replacing the previous batch's index.
func (x *batchIndex) build(batch []graph.Edge) {
	w := len(batch)
	x.in.begin(2 * w)
	x.verts = x.verts[:0]
	x.edges = x.edges[:0]
	x.last.begin(w)
	bits := nextPow2(32*w, 1024)
	words := bits / 64
	if words > cap(x.vbits) {
		x.vbits = make([]uint64, words)
	}
	x.vbits = x.vbits[:words]
	clear(x.vbits)
	x.vbitMask = uint32(bits - 1)

	// Pass 1 (the paper's edgeIter): intern both endpoints and record the
	// degree each reaches, one endpoint increment at a time, so that a
	// self loop's two increments get two distinct degrees.
	for i, e := range batch {
		iu, du := x.touch(e.U)
		iv, dv := x.touch(e.V)
		x.edges = append(x.edges, batchEdge{u: iu, v: iv, du: du, dv: dv})
		x.last.put(packPair(e.U, e.V), int32(i))
	}
	// Lay the occurrence lists out by final degree, then fill them. Each
	// endpoint increment owns exactly one slot, so every slot is written
	// from this batch.
	var n uint32
	for i := range x.verts {
		x.verts[i].start = n
		n += x.verts[i].deg
	}
	if int(n) > cap(x.occ) {
		x.occ = make([]uint32, n)
	}
	x.occ = x.occ[:n]
	for i, e := range x.edges {
		x.occ[x.verts[e.u].start+e.du-1] = uint32(i)
		x.occ[x.verts[e.v].start+e.dv-1] = uint32(i)
	}
}

// touch interns batch endpoint v, marks it in the bitmap and bumps its
// degree, returning its id and new degree.
func (x *batchIndex) touch(v graph.NodeID) (id, deg uint32) {
	h := hash32(v)
	i := h & x.vbitMask
	x.vbits[i>>6] |= 1 << (i & 63)
	id = x.in.internHashed(v, h)
	if int(id) == len(x.verts) {
		x.verts = append(x.verts, batchVertex{})
	}
	x.verts[id].deg++
	return id, x.verts[id].deg
}

// mayContain reports whether a vertex hashing to hash might be a batch
// vertex (no false negatives).
func (x *batchIndex) mayContain(hash uint32) bool {
	i := hash & x.vbitMask
	return x.vbits[i>>6]&(1<<(i&63)) != 0
}

// degree returns v's interned id and final batch degree; the degree is 0
// (and the id meaningless) if v is not a batch vertex.
func (x *batchIndex) degree(v graph.NodeID) (id, deg uint32) {
	h := hash32(v)
	if !x.mayContain(h) {
		return 0, 0
	}
	id, ok := x.in.lookupHashed(v, h)
	if !ok {
		return 0, 0
	}
	return id, x.verts[id].deg
}

// reach returns the batch position at which interned vertex v reaches
// batch degree d (1 ≤ d ≤ v's final batch degree): where EVENTB(v, d)
// fires.
func (x *batchIndex) reach(v, d uint32) uint32 {
	return x.occ[x.verts[v].start+d-1]
}

// closes reports whether the batch holds the edge {u, v} at a position
// after `after` (pass -1 for anywhere in the batch): the test that closes
// a wedge whose outer endpoints are u and v.
func (x *batchIndex) closes(u, v graph.NodeID, after int32) bool {
	if !x.mayContain(hash32(u)) || !x.mayContain(hash32(v)) {
		return false
	}
	return x.last.get(packPair(u, v)) > after
}
