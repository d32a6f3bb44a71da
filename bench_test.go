package streamtri_test

// One benchmark per table and figure of the paper's evaluation
// (Section 4) plus the Section 5 extensions and the ablations.
// Each benchmark processes the full stand-in stream per iteration and
// reports the achieved throughput (Medges/s) and, where meaningful, the
// relative error against the exact count, so `go test -bench` regenerates
// the paper's measurements. cmd/experiments prints the same data as
// formatted tables.

import (
	"fmt"
	"testing"

	"streamtri"
	"streamtri/internal/bench"
	"streamtri/internal/clique"
	"streamtri/internal/core"
	"streamtri/internal/exact"
	"streamtri/internal/gen"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
	"streamtri/internal/window"
)

// run processes the stream through a bulk counter and returns the
// estimate.
func run(edges []graph.Edge, r, w int, seed uint64) float64 {
	c := core.NewCounter(r, seed)
	for lo := 0; lo < len(edges); lo += w {
		hi := lo + w
		if hi > len(edges) {
			hi = len(edges)
		}
		c.AddBatch(edges[lo:hi])
	}
	return c.EstimateTriangles()
}

func reportAccuracy(b *testing.B, edges int, lastEst, truth float64) {
	b.ReportMetric(float64(edges)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medges/s")
	if truth > 0 {
		err := 100 * (lastEst - truth) / truth
		if err < 0 {
			err = -err
		}
		b.ReportMetric(err, "err%")
	}
}

// benchOurs is the shared body for the Table 1/2/3 and Figure 4 rows.
func benchOurs(b *testing.B, d *bench.Dataset, r int) {
	edges := bench.ShuffledTrialStream(d, 0)
	truth := float64(d.Stats().Tau)
	b.ResetTimer()
	var est float64
	for i := 0; i < b.N; i++ {
		est = run(edges, r, 8*r, uint64(i+1))
	}
	b.StopTimer()
	reportAccuracy(b, len(edges), est, truth)
}

func benchJG(b *testing.B, d *bench.Dataset, r int) {
	edges := bench.ShuffledTrialStream(d, 0)
	truth := float64(d.Stats().Tau)
	b.ResetTimer()
	var est float64
	for i := 0; i < b.N; i++ {
		t := bench.RunJG(edges, r, uint64(i+1))
		est = t.Estimate
	}
	b.StopTimer()
	reportAccuracy(b, len(edges), est, truth)
}

// --- Table 1: Syn 3-reg, JG vs ours, r ∈ {1K, 10K, 100K} -------------

func BenchmarkTable1Ours(b *testing.B) {
	for _, r := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			benchOurs(b, bench.Get("syn3reg"), r)
		})
	}
}

func BenchmarkTable1JG(b *testing.B) {
	for _, r := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			benchJG(b, bench.Get("syn3reg"), r)
		})
	}
}

// --- Table 2: Hep-Th stand-in, JG vs ours ----------------------------

func BenchmarkTable2Ours(b *testing.B) {
	for _, r := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			benchOurs(b, bench.Get("hepth-sim"), r)
		})
	}
}

func BenchmarkTable2JG(b *testing.B) {
	// r=100K JG on 50k edges costs minutes per iteration (the point of
	// Table 2); the full cell is produced by cmd/experiments.
	for _, r := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			benchJG(b, bench.Get("hepth-sim"), r)
		})
	}
}

// --- Table 3: bulk algorithm on every dataset as r varies ------------

func BenchmarkTable3(b *testing.B) {
	for _, name := range []string{"amazon-sim", "dblp-sim", "youtube-sim", "livejournal-sim", "orkut-sim", "syndreg-sim"} {
		for _, r := range []int{1 << 10, 1 << 14, 1 << 17} {
			b.Run(fmt.Sprintf("%s/r=%d", name, r), func(b *testing.B) {
				benchOurs(b, bench.Get(name), r)
			})
		}
	}
}

// --- Figure 4: throughput per dataset (r = 128K analogue) ------------

func BenchmarkFig4Throughput(b *testing.B) {
	for _, name := range []string{"amazon-sim", "dblp-sim", "youtube-sim", "livejournal-sim", "orkut-sim"} {
		b.Run(name, func(b *testing.B) {
			benchOurs(b, bench.Get(name), 1<<14)
		})
	}
}

// --- Figure 5: r sweep on the Youtube and LiveJournal stand-ins ------

func BenchmarkFig5Sweep(b *testing.B) {
	for _, name := range []string{"youtube-sim", "livejournal-sim"} {
		for r := 1 << 10; r <= 1<<17; r <<= 2 {
			b.Run(fmt.Sprintf("%s/r=%d", name, r), func(b *testing.B) {
				benchOurs(b, bench.Get(name), r)
			})
		}
	}
}

// --- Figure 6: batch-size sweep on the LiveJournal stand-in ----------

func BenchmarkFig6BatchSize(b *testing.B) {
	d := bench.Get("livejournal-sim")
	edges := bench.ShuffledTrialStream(d, 0)
	const r = 1 << 16
	for _, w := range []int{1 << 14, 1 << 16, 1 << 18, 1 << 19} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(edges, r, w, uint64(i+1))
			}
			b.StopTimer()
			reportAccuracy(b, len(edges), 0, 0)
		})
	}
}

// --- Ablation A2: bulk vs naive sequential processing ----------------

func BenchmarkBulkVsNaive(b *testing.B) {
	d := bench.Get("syn3reg")
	edges := bench.ShuffledTrialStream(d, 0)
	const r = 1 << 13
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(edges, r, 8*r, uint64(i+1))
		}
		reportAccuracy(b, len(edges), 0, 0)
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := core.NewCounter(r, uint64(i+1))
			for _, e := range edges {
				c.Add(e)
			}
		}
		reportAccuracy(b, len(edges), 0, 0)
	})
}

// --- Ablation: geometric-skip level-1 resampling ----------------------

func BenchmarkLevel1Skip(b *testing.B) {
	d := bench.Get("livejournal-sim")
	edges := bench.ShuffledTrialStream(d, 0)
	const r = 1 << 16
	b.Run("skip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := core.NewCounter(r, uint64(i+1))
			for lo := 0; lo < len(edges); lo += 8 * r {
				hi := min(lo+8*r, len(edges))
				c.AddBatch(edges[lo:hi])
			}
		}
		reportAccuracy(b, len(edges), 0, 0)
	})
	b.Run("noskip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := core.NewCounter(r, uint64(i+1), core.WithoutLevel1Skip())
			for lo := 0; lo < len(edges); lo += 8 * r {
				hi := min(lo+8*r, len(edges))
				c.AddBatch(edges[lo:hi])
			}
		}
		reportAccuracy(b, len(edges), 0, 0)
	})
}

// --- Map-free bulk path: public-API view of the core rewrite ----------

// BenchmarkParallelAddBatch measures the ParallelTriangleCounter intake
// end to end: Add buffers every edge and each full buffer takes the bulk
// path. The per-implementation cells live in internal/bench
// (BenchmarkAddBatchFlat) and are recorded in BENCH_core.txt.
func BenchmarkParallelAddBatch(b *testing.B) {
	d := bench.Get("livejournal-sim")
	edges := bench.ShuffledTrialStream(d, 0)
	const r = 1 << 14
	pc := streamtri.NewParallelTriangleCounter(r, 1, streamtri.WithSeed(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range edges {
			pc.Add(e)
		}
		pc.Flush()
	}
	b.StopTimer()
	reportAccuracy(b, len(edges), 0, 0)
}

// --- X1: 4-clique counting (Theorem 5.5) ------------------------------

func BenchmarkClique4(b *testing.B) {
	edges := stream.Shuffle(gen.Syn3Reg(40, 20), randx.New(1))
	g := graph.MustFromEdges(edges)
	truth := float64(exact.Cliques4(g))
	const r = 1 << 14
	var est float64
	for i := 0; i < b.N; i++ {
		c := clique.NewCounter4(r, uint64(i+1))
		for _, e := range edges {
			c.Add(e)
		}
		est = c.EstimateCliques()
	}
	reportAccuracy(b, len(edges), est, truth)
}

// --- X2: sliding-window triangle counting (Theorem 5.8) --------------

func BenchmarkWindow(b *testing.B) {
	edges := bench.ShuffledTrialStream(bench.Get("syn3reg"), 0)
	const r, w = 2000, 1000
	for i := 0; i < b.N; i++ {
		c := window.NewCounter(r, w, uint64(i+1))
		for _, e := range edges {
			c.Add(e)
		}
	}
	reportAccuracy(b, len(edges), 0, 0)
}

// --- Triangle sampling (Theorem 3.8) ----------------------------------

func BenchmarkTriangleSampling(b *testing.B) {
	edges := bench.ShuffledTrialStream(bench.Get("syn3reg"), 0)
	for i := 0; i < b.N; i++ {
		s := streamtri.NewTriangleSampler(1<<15, streamtri.WithSeed(uint64(i+1)))
		s.AddBatch(edges)
		if _, ok := s.Sample(5); !ok {
			b.Fatal("sampling failed")
		}
	}
	reportAccuracy(b, len(edges), 0, 0)
}

// --- Exact-count substrate (used as ground truth everywhere) ----------

func BenchmarkExactTriangles(b *testing.B) {
	d := bench.Get("livejournal-sim")
	edges := d.Edges()
	g := graph.MustFromEdges(edges)
	b.ResetTimer()
	var tau uint64
	for i := 0; i < b.N; i++ {
		tau = exact.Triangles(g)
	}
	b.StopTimer()
	if tau != d.Stats().Tau {
		b.Fatal("exact count mismatch")
	}
	reportAccuracy(b, len(edges), 0, 0)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
