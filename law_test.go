package streamtri_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"streamtri"
	"streamtri/internal/core"
	"streamtri/internal/exact"
	"streamtri/internal/gen"
	"streamtri/internal/randx"
	"streamtri/internal/stats"
	"streamtri/internal/stream"
)

// TestParallelTriangleCounterExactLaw holds the deprecated wrapper to
// the exact-law oracle of the bulk engine (internal/core TestExactLaw):
// at p = 2 and 3, fed through Add, which buffers batches of w = 3, and
// restored halfway through the stream from a checkpoint of three shards,
// built here the way builds that split the estimators into shards wrote
// it, every estimator's end state must be one Lemma 3.1's law gives
// positive probability, with the c and triangle flag its (r1, r2) fix,
// and the states must fit the law with |z| ≤ 5.
func TestParallelTriangleCounterExactLaw(t *testing.T) {
	const r, w, zBound = 100_000, 3, 5
	streams := []struct {
		name  string
		edges []streamtri.Edge
	}{
		{"figure1", []streamtri.Edge{
			{U: 1, V: 2}, {U: 2, V: 3}, {U: 1, V: 3},
			{U: 4, V: 5}, {U: 5, V: 6}, {U: 4, V: 6},
			{U: 5, V: 7}, {U: 4, V: 7},
			{U: 4, V: 8}, {U: 5, V: 9}, {U: 4, V: 10},
		}},
		{"k5", stream.Shuffle(gen.Complete(5), randx.New(71))},
		{"holmekim", gen.HolmeKim(randx.New(72), 12, 2, 0.5)},
	}
	for si, s := range streams {
		law := exact.NeighborhoodSamplingLaw(s.edges)
		check := func(name string, pc *streamtri.ParallelTriangleCounter) {
			t.Helper()
			z := parallelLawZ(t, law, pc)
			t.Logf("%s/%s: z = %.2f", s.name, name, z)
			if z < -zBound || z > zBound {
				t.Errorf("%s/%s: z = %.2f, want |z| ≤ %d", s.name, name, z, zBound)
			}
		}
		seed := uint64(2000 * (si + 1))
		for _, p := range []int{2, 3} {
			pc := streamtri.NewParallelTriangleCounter(r, p, streamtri.WithSeed(seed+uint64(p)), streamtri.WithBatchSize(w))
			for _, e := range s.edges {
				pc.Add(e)
			}
			pc.Close()
			check(fmt.Sprintf("add/p=%d/w=%d", p, w), pc)
		}

		// Three shards of 33,334, 33,333 and 33,333 estimators take the
		// first half, each from its own seed; their checkpoint is the
		// 8-byte batch size, the 20-byte envelope header (magic, version,
		// p, m) and the shards' counter blobs.
		half := len(s.edges) / 2
		le := binary.LittleEndian
		ckpt := le.AppendUint64(nil, w)
		ckpt = append(ckpt, "NSTS"...)
		ckpt = le.AppendUint32(ckpt, 1)
		ckpt = le.AppendUint32(ckpt, 3)
		ckpt = le.AppendUint64(ckpt, uint64(half))
		for i, n := range []int{r/3 + 1, r / 3, r / 3} {
			c := streamtri.NewTriangleCounter(n, streamtri.WithSeed(seed+10+uint64(i)), streamtri.WithBatchSize(w))
			for lo := 0; lo < half; lo += w {
				c.AddBatch(s.edges[lo:min(lo+w, half)])
			}
			var buf bytes.Buffer
			if _, err := c.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			ckpt = append(ckpt, buf.Bytes()[8:]...)
		}
		pc, err := streamtri.RestoreParallelTriangleCounter(bytes.NewReader(ckpt))
		if err != nil {
			t.Fatal(err)
		}
		for lo := half; lo < len(s.edges); lo += w {
			pc.AddBatch(s.edges[lo:min(lo+w, len(s.edges))])
		}
		check(fmt.Sprintf("restored-p=3/w=%d", w), pc)
	}
}

// parallelLawZ returns the standardized χ² statistic of pc's estimator
// states, read back from its checkpoint, against law, after failing t
// on any state the law gives probability 0 or whose c or triangle flag
// its (r1, r2) do not fix.
func parallelLawZ(t *testing.T, law *exact.SamplingLaw, pc *streamtri.ParallelTriangleCounter) float64 {
	t.Helper()
	var buf bytes.Buffer
	if _, err := pc.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := core.ReadCounterFrom(bytes.NewReader(buf.Bytes()[8:]))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(law.Outcomes))
	for i, est := range c.Estimators() {
		_, r1Pos, ok := est.Level1()
		var r2Pos uint64
		if _, p, ok := est.Level2(); ok {
			r2Pos = p
		}
		k, found := law.Find(r1Pos, r2Pos)
		if !ok || !found {
			t.Fatalf("estimator %d: state (r1 at %d, r2 at %d) has probability 0", i, r1Pos, r2Pos)
		}
		if o := law.Outcomes[k]; est.C() != o.C || est.HasTriangle() != o.Closed {
			t.Fatalf("estimator %d: r1 at %d, r2 at %d: c = %d, triangle %v; want %d, %v",
				i, r1Pos, r2Pos, est.C(), est.HasTriangle(), o.C, o.Closed)
		}
		counts[k]++
	}
	return stats.ChiSquareZ(counts, law.Probabilities())
}
