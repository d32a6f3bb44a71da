package core

import (
	"fmt"
	"os"
	"testing"

	"streamtri/internal/exact"
	"streamtri/internal/gen"
	"streamtri/internal/randx"
	"streamtri/internal/stats"
	"streamtri/internal/stream"
)

// lawZBound is the exact-law oracle's bound on |z|, the standardized χ²
// statistic of the estimators' end states against Lemma 3.1's law.
const lawZBound = 5

// lawGrid returns the oracle's estimator count and batch widths on a
// stream of m edges: R = 100,000 and w ∈ {1, 2, 3, 5, 7, m} by default,
// and R = 400,000 at every w from 1 to m when STREAMTRI_LAW_FULL is set
// (the nightly grid).
func lawGrid(m int) (r int, widths []int) {
	if os.Getenv("STREAMTRI_LAW_FULL") != "" {
		for w := 1; w <= m; w++ {
			widths = append(widths, w)
		}
		return 400_000, widths
	}
	return 100_000, []int{1, 2, 3, 5, 7, m}
}

// lawStreams returns the oracle's three tiny simple streams: the paper's
// Figure 1 stream (m = 11), a shuffled K5 (m = 10) and a 21-edge
// Holme–Kim stream in growth order.
func lawStreams() []goldenStream {
	return []goldenStream{
		{"figure1", figure1Stream()},
		{"k5", stream.Shuffle(gen.Complete(5), randx.New(71))},
		{"holmekim", gen.HolmeKim(randx.New(72), 12, 2, 0.5)},
	}
}

// TestExactLaw is the exact-law oracle for the bulk engine. On a tiny
// stream the end state of every estimator has a closed-form law
// (Lemma 3.1, exact.NeighborhoodSamplingLaw), and a counter's estimators
// are independent draws from it, so one counter with R estimators is a
// sample of R states. Each configuration must give every estimator a
// state of positive probability whose c and triangle flag are the ones
// its (r1, r2) fix, and must fit the law's probabilities with
// |z| ≤ lawZBound. It covers AddBatch at several widths with the
// level-1 skip on and off, Add, and counters restored mid-stream from
// the checkpoint of a counter split into p = 2 and 3 shards, which
// continue on shard 0's RNG.
// The fixed bands of the accuracy tests miss a bulk engine that is
// measurably wrong; this test does not.
func TestExactLaw(t *testing.T) {
	for si, s := range lawStreams() {
		law := exact.NeighborhoodSamplingLaw(s.edges)
		r, widths := lawGrid(len(s.edges))
		seed := uint64(1000 * (si + 1))
		check := func(name string, ests []Estimator) {
			t.Helper()
			seed++
			z := lawZ(t, law, ests)
			t.Logf("%s/%s: z = %.2f", s.name, name, z)
			if z < -lawZBound || z > lawZBound {
				t.Errorf("%s/%s: z = %.2f, want |z| ≤ %d", s.name, name, z, lawZBound)
			}
		}
		for _, w := range widths {
			for _, skip := range []bool{true, false} {
				var opts []Option
				if !skip {
					opts = append(opts, WithoutLevel1Skip())
				}
				c := runBulk(s.edges, r, seed, w, opts...)
				check(fmt.Sprintf("addbatch/w=%d/skip=%v", w, skip), c.ests)
			}
		}
		c := NewCounter(r, seed)
		for _, e := range s.edges {
			c.Add(e)
		}
		check("add", c.ests)
		for _, p := range []int{2, 3} {
			var sc goldenCounter = newShardSet(r, p, seed)
			for lo := 0; lo < len(s.edges); lo += 3 {
				hi := min(lo+3, len(s.edges))
				sc.AddBatch(s.edges[lo:hi])
				sc = restoreShardsAtHalf(t, sc, hi, len(s.edges))
			}
			check(fmt.Sprintf("restored-p%d/w=3", p), sc.(*Counter).ests)
		}
	}
}

// lawZ returns the standardized χ² statistic of ests' end states against
// law, after failing t on any state the law gives probability 0 or whose
// c or triangle flag its (r1, r2) do not fix.
func lawZ(t *testing.T, law *exact.SamplingLaw, ests []Estimator) float64 {
	t.Helper()
	counts := make([]int, len(law.Outcomes))
	for i := range ests {
		est := &ests[i]
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
