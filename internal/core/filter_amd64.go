package core

// haveFilterKernel reports whether this CPU runs filterKernel: it has
// AVX2 and POPCNT, and the OS saves the YMM registers (CPUID and XGETBV
// in filterKernelSupported).
var haveFilterKernel = filterKernelSupported()

// filterLanes[m] packs, one byte each from the lowest, the indices of
// the set bits of m. filterKernel's compress widens the entry of a
// step's pass mask to eight lanes and adds the step's first index, which
// puts the indices of the step's passing endpoints first.
var filterLanes = func() (t [256]uint64) {
	for m := range t {
		k := 0
		for lane := range 8 {
			if m>>lane&1 == 1 {
				t[m] |= uint64(lane) << (8 * k)
				k++
			}
		}
	}
	return t
}()

// filterKernel is filterChunk in AVX2 over len(eps) endpoints, a
// multiple of 8, with f.words as words; it writes only cands[:len(eps)].
// Each step hashes eight endpoints, gathers their filter words
// (VPGATHERDD), tests both bits of each, and stores eight candidates at
// the next free entry, of which the passing ones, counted by POPCNT, come
// first. So the step over endpoints 8s to 8s+7 writes entries k to k+7
// with k ≤ 8s. VPGATHERDD is much slower on Intel CPUs whose microcode
// mitigates Gather Data Sampling (CVE-2022-40982); the kernel was
// measured only on a CPU that reports itself not affected.
//
//go:noescape
func filterKernel(eps []uint32, base uint32, words []uint32, cands []uint32) int

func filterKernelSupported() bool
