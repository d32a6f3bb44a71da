package core

import "streamtri/internal/graph"

// interner densely remaps vertices to consecutive ids in [0, size). The
// bulk path keeps one across batches for the endpoints of every
// estimator's level-1 edge (batchIndex, scratch.go), so size is about
// 2r, within the Theorem 3.5 space bound. It is the allocation-free
// replacement for a `map[graph.NodeID]uint32`: every slice is reused,
// a slot is 8 bytes, so the randomly probed table stays small, and each
// key is kept once, in its slot.
type interner struct {
	mask  uint32
	slots []internSlot
	// size is the number of vertices interned since begin, and the next
	// id.
	size int
}

// internSlot holds one key and its id plus one; 0 marks an empty slot.
type internSlot struct {
	key graph.NodeID
	id1 uint32
}

// begin empties the interner for about `capacity` distinct vertices:
// the hash index gets at least 2·capacity slots and grows only past load
// 3/4, so a rebuild's keys plus the batch index's allowance of later
// ones fit without growth, and same-sized rebuilds allocate nothing
// after the first.
func (in *interner) begin(capacity int) {
	need := nextPow2(2*capacity, 16)
	if need > len(in.slots) {
		in.slots = make([]internSlot, need)
		in.mask = uint32(need - 1)
	} else {
		clear(in.slots)
	}
	in.size = 0
}

// capacity returns how many keys the hash index takes before it grows.
func (in *interner) capacity() int { return len(in.slots) / 4 * 3 }

// intern returns the dense id of v, assigning the next free id on first
// sight. Ids are stable until the next begin, including across table
// growth.
func (in *interner) intern(v graph.NodeID) uint32 {
	return in.internHashed(v, hash32(v))
}

// internHashed is intern with the hash precomputed (callers that also
// feed the hash to a filter compute it once).
func (in *interner) internHashed(v graph.NodeID, hash uint32) uint32 {
	h := hash & in.mask
	for {
		s := &in.slots[h]
		if s.id1 == 0 {
			if in.size >= in.capacity() {
				in.grow()
				return in.internHashed(v, hash)
			}
			id := uint32(in.size)
			*s = internSlot{key: v, id1: id + 1}
			in.size++
			return id
		}
		if s.key == v {
			return s.id1 - 1
		}
		h = (h + 1) & in.mask
	}
}

// lookupHashed returns the dense id of v, whose hash32 is hash, and
// whether v was interned since begin.
func (in *interner) lookupHashed(v graph.NodeID, hash uint32) (uint32, bool) {
	h := hash & in.mask
	for {
		s := &in.slots[h]
		if s.id1 == 0 {
			return 0, false
		}
		if s.key == v {
			return s.id1 - 1, true
		}
		h = (h + 1) & in.mask
	}
}

// grow doubles the hash index and rehashes the old slots into it. Each
// slot carries its key's id, so the ids do not change.
func (in *interner) grow() {
	old := in.slots
	in.slots = make([]internSlot, 2*len(old))
	in.mask = uint32(len(in.slots) - 1)
	for _, s := range old {
		if s.id1 == 0 {
			continue
		}
		h := hash32(s.key) & in.mask
		for in.slots[h].id1 != 0 {
			h = (h + 1) & in.mask
		}
		in.slots[h] = s
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
