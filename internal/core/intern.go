package core

import "streamtri/internal/graph"

// interner densely remaps the query vertices of one batch — the level-1
// endpoints that may be batch vertices — to consecutive ids in [0, k). It
// is the allocation-free replacement for the per-batch
// `map[graph.NodeID]uint32` the bulk algorithm would otherwise rebuild:
// the hash index is epoch-stamped, so starting a new batch is a single
// counter bump instead of a table clear, and every slice is reused across
// batches. Footprint is O(k) where k ≤ 2r, and since only vertices that
// pass the batch-vertex bitmap are interned, k is about 2w at most as
// well. That is within the Theorem 3.5 space bound.
type interner struct {
	epoch uint32
	mask  uint32
	slots []internSlot
	// keys maps dense id -> original vertex; len(keys) is the number of
	// vertices interned this epoch.
	keys []graph.NodeID
}

type internSlot struct {
	epoch uint32
	key   graph.NodeID
	id    uint32
}

// begin starts a new batch expected to intern about `capacity` distinct
// vertices. The hash index is kept at load factor ≤ 1/2 and grows
// geometrically, so a long stream of same-sized batches allocates nothing
// after the first.
func (in *interner) begin(capacity int) {
	need := nextPow2(2*capacity, 16)
	if need > len(in.slots) {
		in.slots = make([]internSlot, need)
		in.mask = uint32(need - 1)
		in.epoch = 0
	}
	in.epoch++
	if in.epoch == 0 { // epoch counter wrapped: stale stamps could collide
		clear(in.slots)
		in.epoch = 1
	}
	in.keys = in.keys[:0]
}

// intern returns the dense id of v, assigning the next free id on first
// sight. Ids are stable for the rest of the batch, including across table
// growth.
func (in *interner) intern(v graph.NodeID) uint32 {
	return in.internHashed(v, hash32(v))
}

// internHashed is intern with the hash precomputed (callers that also
// feed the hash to the batch-vertex bitmap compute it once).
func (in *interner) internHashed(v graph.NodeID, hash uint32) uint32 {
	h := hash & in.mask
	for {
		s := &in.slots[h]
		if s.epoch != in.epoch {
			if 2*len(in.keys) >= len(in.slots) {
				in.grow()
				return in.internHashed(v, hash)
			}
			id := uint32(len(in.keys))
			*s = internSlot{epoch: in.epoch, key: v, id: id}
			in.keys = append(in.keys, v)
			return id
		}
		if s.key == v {
			return s.id
		}
		h = (h + 1) & in.mask
	}
}

// lookupHashed returns the dense id of v, whose hash32 is hash, and
// whether v was interned this batch.
func (in *interner) lookupHashed(v graph.NodeID, hash uint32) (uint32, bool) {
	h := hash & in.mask
	for {
		s := &in.slots[h]
		if s.epoch != in.epoch {
			return 0, false
		}
		if s.key == v {
			return s.id, true
		}
		h = (h + 1) & in.mask
	}
}

// size returns the number of vertices interned this batch.
func (in *interner) size() int { return len(in.keys) }

// grow doubles the hash index and reinserts the current epoch's keys.
// Dense ids are preserved because they live in in.keys, not in slot order.
func (in *interner) grow() {
	in.slots = make([]internSlot, 2*len(in.slots))
	in.mask = uint32(len(in.slots) - 1)
	for id, v := range in.keys {
		h := hash32(v) & in.mask
		for in.slots[h].epoch == in.epoch {
			h = (h + 1) & in.mask
		}
		in.slots[h] = internSlot{epoch: in.epoch, key: v, id: uint32(id)}
	}
}

// hash32 is the "lowbias32" avalanche hash: every input bit affects every
// output bit, which linear probing over a power-of-two table requires
// (vertex ids are often sequential).
func hash32(v uint32) uint32 {
	v ^= v >> 16
	v *= 0x7feb352d
	v ^= v >> 15
	v *= 0x846ca68b
	v ^= v >> 16
	return v
}

// hash64 is splitmix64's finalizer, used for the packed vertex-pair keys
// of the pair table.
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
