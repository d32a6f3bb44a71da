//go:build !amd64

package core

// haveFilterKernel is false off amd64: filterLoop is scan's only filter
// path.
const haveFilterKernel = false

func filterKernel(eps []uint32, base uint32, words []uint32, cands []uint32) int {
	panic("core: the filter kernel runs on amd64 only")
}
