package core

import (
	"slices"
	"unsafe"

	"streamtri/internal/graph"
)

// keyFilter is the index's filter over its keys' hashes (batchIndex):
// a blocked filter in 32-bit words, two bits per key. A key sets two
// bits of one word: the hash's low bits pick the word, bits 27–31 and
// 22–26 the bits. It has no false negatives, and a batch endpoint that
// is no key passes only if both of its bits are set, so at 16 bits per
// key it passes about a third as many as a one-bit filter of that size
// would. scan's filter pass (filterChunk) tests every batch endpoint
// against it.
type keyFilter struct {
	words []uint32
	mask  uint32 // len(words) - 1
}

// reset empties the filter and sizes it to bits, a power of two ≥ 64.
func (f *keyFilter) reset(bits int) {
	n := bits / 32
	f.words = slices.Grow(f.words[:0], n)[:n]
	clear(f.words)
	f.mask = uint32(n - 1)
}

// keyBits returns the two bits a key with this hash sets in its word.
func keyBits(hash uint32) uint32 {
	return 1<<(hash>>27) | 1<<(hash>>22&31)
}

func (f *keyFilter) add(hash uint32) {
	f.words[hash&f.mask] |= keyBits(hash)
}

// test returns 1 if both of hash's bits are set and 0 if not: the
// filter loop advances its candidate count by it instead of branching
// on it.
func (f *keyFilter) test(hash uint32) int {
	missing := keyBits(hash) &^ f.words[hash&f.mask]
	return int((uint64(missing) - 1) >> 63)
}

// batchEndpoints returns the batch's endpoints as one array, edge i's U
// at 2i and V at 2i+1. A candidate of scan's filter pass is an index
// into it: position·2 + side.
func batchEndpoints(batch []graph.Edge) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(batch))), 2*len(batch))
}

// useFilterKernel selects filterKernel for filterChunk. It is set once,
// at start-up, where the CPU runs the kernel (haveFilterKernel); tests
// clear it to hold the filter loop to the same results.
var useFilterKernel = haveFilterKernel

// filterChunk is scan's filter pass over eps, a chunk of the batch's
// endpoints (batchEndpoints) whose first one has index base: for each
// endpoint whose hash32 passes f, in order, it writes the endpoint's
// index to cands, and it returns how many it wrote. cands must hold
// len(eps) entries. The kernel, where selected, takes the endpoints
// eight at a time, and the loop the last 0–7.
func filterChunk(eps []uint32, base uint32, f *keyFilter, cands []uint32) int {
	k, done := 0, 0
	if useFilterKernel {
		done = len(eps) &^ 7
		k = filterKernel(eps[:done], base, f.words, cands[:done])
	}
	return k + filterLoop(eps[done:], base+uint32(done), f, cands[k:])
}

// filterLoop is filterChunk in Go: the only path on CPUs without the
// kernel, and the kernel's reference in tests.
func filterLoop(eps []uint32, base uint32, f *keyFilter, cands []uint32) int {
	k := 0
	for i, v := range eps {
		cands[k] = base + uint32(i)
		k += f.test(hash32(v))
	}
	return k
}
