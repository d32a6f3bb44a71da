package core

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"testing"
)

// FuzzFilterChunk holds the kernel to the filter loop: on any chunk of
// up to 1,024 edges (8 bytes each, U then V, little-endian), any filter
// of 2^6 to 2^20 bits (2^(6 + logBits mod 15)) and any key set,
// filterChunk must write the loop's candidates, in order, return its
// count, and write nothing past len(eps). The keys are one per 4 bytes
// of keys, plus, when every is above 0, every every-th endpoint of the
// chunk, so a chunk can pass in any proportion. The seed corpus covers
// every chunk length mod 4, self loops, the ids 0 and 2^32-1, both ends
// of the filter sizes, an empty and a full key set, and 200 random
// chunks.
func FuzzFilterChunk(f *testing.F) {
	if !haveFilterKernel {
		f.Skip("this CPU runs the filter loop only")
	}
	le := func(ids ...uint32) (b []byte) {
		for _, v := range ids {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	f.Add([]byte{}, []byte{}, uint8(0), uint8(0), uint32(0))
	for n := 1; n <= 9; n++ {
		ids := make([]uint32, 2*n)
		for i := range ids {
			ids[i] = uint32(i * 7919)
		}
		f.Add(le(ids...), le(ids[:n]...), uint8(n), uint8(0), uint32(n))
	}
	f.Add(le(5, 5, 0, 0, ^uint32(0), ^uint32(0), 5, 0, 0, ^uint32(0), 1, 1), le(0, ^uint32(0)), uint8(0), uint8(0), uint32(0))
	f.Add(le(0, ^uint32(0), ^uint32(0), 0, 0, 1, 2, 3), []byte{}, uint8(14), uint8(1), ^uint32(0)-3)
	rng := rand.New(rand.NewPCG(1, 2))
	for range 200 {
		chunk := make([]byte, 8*rng.IntN(1025))
		for i := range chunk {
			chunk[i] = byte(rng.Uint32())
		}
		keys := make([]byte, 4*rng.IntN(300))
		for i := range keys {
			keys[i] = byte(rng.Uint32())
		}
		f.Add(chunk, keys, uint8(rng.IntN(15)), uint8(rng.IntN(9)), rng.Uint32())
	}
	f.Fuzz(func(t *testing.T, chunk, keys []byte, logBits, every uint8, base uint32) {
		eps := make([]uint32, min(len(chunk)/8, 1024)*2)
		for i := range eps {
			eps[i] = binary.LittleEndian.Uint32(chunk[4*i:])
		}
		var kf keyFilter
		kf.reset(1 << (6 + logBits%15))
		for i := 0; i+4 <= len(keys); i += 4 {
			kf.add(hash32(binary.LittleEndian.Uint32(keys[i:])))
		}
		for i := 0; every > 0 && i < len(eps); i += int(every) {
			kf.add(hash32(eps[i]))
		}
		want := make([]uint32, len(eps))
		n := filterLoop(eps, base, &kf, want)
		const sentinel = 0xdeadbeef
		got := make([]uint32, len(eps)+8)
		for i := range got {
			got[i] = sentinel
		}
		k := filterChunk(eps, base, &kf, got[:len(eps)])
		if k != n || !slices.Equal(got[:k], want[:n]) {
			t.Fatalf("kernel wrote %d candidates %v, the loop %d %v", k, got[:k], n, want[:n])
		}
		for _, c := range got[len(eps):] {
			if c != sentinel {
				t.Fatalf("kernel wrote past the %d endpoints: %v", len(eps), got[len(eps):])
			}
		}
	})
}

// TestGoldenOnFilterLoop runs the bulk engine's digests and its
// exact-law oracle again with the kernel switched off, so the filter
// loop, the only path on other CPUs, is held to them on every run.
func TestGoldenOnFilterLoop(t *testing.T) {
	if !useFilterKernel {
		t.Skip("the filter loop is this CPU's only path, and the golden tests ran on it")
	}
	useFilterKernel = false
	t.Cleanup(func() { useFilterKernel = true })
	t.Run("BulkStateGolden", TestBulkStateGolden)
	t.Run("BulkStateGoldenWide", TestBulkStateGoldenWide)
	t.Run("BulkStateGoldenPaths", TestBulkStateGoldenPaths)
	t.Run("ExactLaw", TestExactLaw)
}

// BenchmarkFilterChunk prices scan's filter pass over one chunk of
// probeChunk endpoints, per edge, on the kernel and on the loop: a
// filter of bulk-load's size (r = 16,384) holding 2r keys, against a
// chunk of which a quarter of the endpoints are keys.
func BenchmarkFilterChunk(b *testing.B) {
	const r = 16384
	rng := rand.New(rand.NewPCG(3, 4))
	var kf keyFilter
	kf.reset(32 * r)
	eps := make([]uint32, probeChunk)
	for i := range 2 * r {
		v := rng.Uint32()
		kf.add(hash32(v))
		if i < len(eps)/4 {
			eps[4*i] = v
		}
	}
	for i := range eps {
		if i%4 != 0 {
			eps[i] = rng.Uint32()
		}
	}
	cands := make([]uint32, probeChunk)
	for _, kernel := range []bool{true, false} {
		name := map[bool]string{true: "kernel", false: "loop"}[kernel]
		b.Run(name, func(b *testing.B) {
			if kernel && !haveFilterKernel {
				b.Skip("this CPU runs the filter loop only")
			}
			defer func(on bool) { useFilterKernel = on }(useFilterKernel)
			useFilterKernel = kernel
			for range b.N {
				filterChunk(eps, 0, &kf, cands)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probeChunk/2), "ns/edge")
		})
	}
}
