package bench

import (
	"fmt"
	"io"
	"math"
	"strings"

	"streamtri/internal/clique"
	"streamtri/internal/core"
	"streamtri/internal/exact"
	"streamtri/internal/gen"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stats"
	"streamtri/internal/stream"
	"streamtri/internal/window"
)

// Config scales the experiments. Zero values select the defaults tuned
// for a single-core container; the paper-scale runs are reached with
// larger RValues and Trials.
type Config struct {
	Trials  int   // repetitions per cell (paper: 5)
	RValues []int // estimator counts for Table 3 / Figure 4
}

func (c Config) withDefaults() Config {
	if c.Trials <= 0 {
		c.Trials = 5
	}
	if len(c.RValues) == 0 {
		// Scaled-down analogue of the paper's {1K, 128K, 1M}.
		c.RValues = []int{1 << 10, 1 << 14, 1 << 17}
	}
	return c
}

func rLabel(r int) string {
	switch {
	case r >= 1<<20 && r%(1<<20) == 0:
		return fmt.Sprintf("%dM", r>>20)
	case r >= 1<<10 && r%(1<<10) == 0:
		return fmt.Sprintf("%dK", r>>10)
	default:
		return fmt.Sprintf("%d", r)
	}
}

// Fig3 prints the dataset summary table and log-binned degree histograms
// (Figure 3 of the paper), with the paper's original rows alongside.
func Fig3(w io.Writer) {
	fmt.Fprintln(w, "== Figure 3: dataset summary (stand-ins; paper rows for reference) ==")
	fmt.Fprintf(w, "%-16s %10s %10s %8s %12s %10s\n", "dataset", "n", "m", "Δ", "τ", "mΔ/τ")
	for _, d := range Registry() {
		s := d.Stats()
		fmt.Fprintf(w, "%-16s %10d %10d %8d %12d %10.1f\n",
			d.Name, s.Nodes, s.Edges, s.MaxDeg, s.Tau, s.Ratio)
		fmt.Fprintf(w, "    paper %-10s %s\n", d.PaperName+":", d.PaperRow)
	}
	fmt.Fprintln(w, "\n-- degree-frequency histograms (log2 buckets), cf. Fig. 3 right panel --")
	for _, d := range Registry() {
		fmt.Fprintf(w, "%s:\n", d.Name)
		for _, b := range d.DegreeHistogramLog() {
			bar := strings.Repeat("#", barLen(b.Count))
			fmt.Fprintf(w, "  deg 2^%-2d %8d %s\n", b.Bucket, b.Count, bar)
		}
	}
}

func barLen(count int) int {
	n := 0
	for v := count; v > 0; v >>= 1 {
		n++
	}
	return n
}

// baselineComparison renders Tables 1 and 2: JG vs ours on one dataset at
// increasing estimator counts.
func baselineComparison(w io.Writer, d *Dataset, rs []int, trials int) {
	s := d.Stats()
	truth := float64(s.Tau)
	fmt.Fprintf(w, "%-10s", "algorithm")
	for _, r := range rs {
		fmt.Fprintf(w, " | r=%-7s MD%%    time(s)", rLabel(r))
	}
	fmt.Fprintln(w)
	for _, algo := range []string{"JG", "Ours"} {
		fmt.Fprintf(w, "%-10s", algo)
		for _, r := range rs {
			var ts []Trial
			for trial := 0; trial < trials; trial++ {
				edges := ShuffledTrialStream(d, uint64(trial))
				seed := uint64(10*trial + 1)
				if algo == "JG" {
					ts = append(ts, RunJG(edges, r, seed))
				} else {
					ts = append(ts, RunOurs(edges, r, 8*r, seed))
				}
			}
			devs := DeviationsPct(ts, truth)
			fmt.Fprintf(w, " | %8s %6.2f %8.3f", "", stats.Mean(devs), MedianSeconds(ts))
		}
		fmt.Fprintln(w)
	}
}

// Table1 reproduces Table 1: JG vs ours on the synthetic 3-regular graph
// at r ∈ {1K, 10K, 100K}.
func Table1(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintln(w, "== Table 1: Syn 3-reg (n=2000, m=3000, τ=1000, mΔ/τ=9) ==")
	baselineComparison(w, Get("syn3reg"), []int{1000, 10000, 100000}, cfg.Trials)
}

// Table2 reproduces Table 2: JG vs ours on the Hep-Th stand-in at
// r ∈ {1K, 10K, 100K}.
func Table2(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	d := Get("hepth-sim")
	s := d.Stats()
	fmt.Fprintf(w, "== Table 2: Hep-Th stand-in (m=%d, Δ=%d, τ=%d, mΔ/τ=%.1f) ==\n",
		s.Edges, s.MaxDeg, s.Tau, s.Ratio)
	baselineComparison(w, d, []int{1000, 10000, 100000}, cfg.Trials)
}

// Table3 reproduces Table 3: min/mean/max deviation and median time of
// the bulk algorithm on every dataset as r varies.
func Table3(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintln(w, "== Table 3: accuracy and time of the bulk algorithm ==")
	fmt.Fprintf(w, "%-16s", "dataset")
	for _, r := range cfg.RValues {
		fmt.Fprintf(w, " | r=%-6s min/mean/max dev%%   time(s)", rLabel(r))
	}
	fmt.Fprintln(w, " |  I/O(s)")
	for _, d := range Table3Sets() {
		s := d.Stats()
		truth := float64(s.Tau)
		fmt.Fprintf(w, "%-16s", d.Name)
		for _, r := range cfg.RValues {
			var ts []Trial
			for trial := 0; trial < cfg.Trials; trial++ {
				edges := ShuffledTrialStream(d, uint64(trial))
				ts = append(ts, RunOurs(edges, r, 8*r, uint64(100+trial)))
			}
			dv := stats.MeanDeviation(estimates(ts), truth)
			fmt.Fprintf(w, " | %6.2f/%6.2f/%6.2f %10.3f",
				100*dv.Min, 100*dv.Mean, 100*dv.Max, MedianSeconds(ts))
		}
		// The paper reports the median I/O time per dataset: the cost of
		// streaming the edges from disk, separate from processing.
		ioSecs, err := MeasureDiskIO(d, 1<<17)
		if err != nil {
			fmt.Fprintf(w, " | io err: %v\n", err)
			continue
		}
		fmt.Fprintf(w, " | %7.3f\n", ioSecs)
	}
}

func estimates(ts []Trial) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.Estimate
	}
	return out
}

// MemTable reproduces the Section 4.3 estimator-memory table from the
// actual struct size: 40 bytes per estimator against the paper's 36.
// The flags share r2's position word; the 4 bytes over are the two
// stream positions, held as 64-bit values (see core.EstimatorBytes).
func MemTable(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	size := core.EstimatorBytes()
	fmt.Fprintf(w, "== Estimator memory (Section 4.3; paper: 36 B/estimator) ==\n")
	fmt.Fprintf(w, "our estimator state: %d bytes\n", size)
	for _, r := range cfg.RValues {
		fmt.Fprintf(w, "r=%-8s -> %10d bytes\n", rLabel(r), uint64(r)*size)
	}
}

// Fig4 reproduces Figure 4: average processing throughput (million edges
// per second) per dataset as r varies.
func Fig4(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintln(w, "== Figure 4: average throughput (Medges/s) ==")
	fmt.Fprintf(w, "%-16s", "dataset")
	for _, r := range cfg.RValues {
		fmt.Fprintf(w, " r=%-8s", rLabel(r))
	}
	fmt.Fprintln(w)
	for _, d := range Table3Sets() {
		s := d.Stats()
		fmt.Fprintf(w, "%-16s", d.Name)
		for _, r := range cfg.RValues {
			var sum float64
			for trial := 0; trial < cfg.Trials; trial++ {
				edges := ShuffledTrialStream(d, uint64(trial))
				t := RunOurs(edges, r, 8*r, uint64(200+trial))
				sum += float64(s.Edges) / t.Seconds / 1e6
			}
			fmt.Fprintf(w, " %9.2f", sum/float64(cfg.Trials))
		}
		fmt.Fprintln(w)
	}
}

// Fig5 reproduces Figure 5: total running time, throughput, and relative
// error as r sweeps geometrically, on the Youtube and LiveJournal
// stand-ins, including the Theorem 3.3 bound curve (δ = 1/5).
func Fig5(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintln(w, "== Figure 5: r sweep (time, throughput, error, Thm 3.3 bound) ==")
	rs := []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17}
	for _, name := range []string{"youtube-sim", "livejournal-sim"} {
		d := Get(name)
		s := d.Stats()
		truth := float64(s.Tau)
		fmt.Fprintf(w, "%s (m=%d, Δ=%d, τ=%d):\n", name, s.Edges, s.MaxDeg, s.Tau)
		fmt.Fprintf(w, "%10s %10s %12s %10s %10s\n", "r", "time(s)", "Medges/s", "err%", "bound%")
		for _, r := range rs {
			var ts []Trial
			for trial := 0; trial < cfg.Trials; trial++ {
				edges := ShuffledTrialStream(d, uint64(trial))
				ts = append(ts, RunOurs(edges, r, 8*r, uint64(300+trial)))
			}
			sec := MedianSeconds(ts)
			dv := stats.MeanDeviation(estimates(ts), truth)
			bound := 100 * core.ErrorBound(r, 0.2, s.Edges, uint64(s.MaxDeg), s.Tau)
			fmt.Fprintf(w, "%10s %10.3f %12.2f %10.2f %10.1f\n",
				rLabel(r), sec, float64(s.Edges)/sec/1e6, 100*dv.Mean, bound)
		}
	}
}

// Fig6 reproduces Figure 6: throughput of the bulk algorithm as the batch
// size varies, on the LiveJournal stand-in with r fixed.
func Fig6(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	d := Get("livejournal-sim")
	s := d.Stats()
	r := 1 << 16
	fmt.Fprintf(w, "== Figure 6: throughput vs batch size (livejournal-sim, r=%s) ==\n", rLabel(r))
	fmt.Fprintf(w, "%12s %12s\n", "batch size", "Medges/s")
	for _, wsize := range []int{1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 19} {
		var ts []Trial
		for trial := 0; trial < cfg.Trials; trial++ {
			edges := ShuffledTrialStream(d, uint64(trial))
			ts = append(ts, RunOurs(edges, r, wsize, uint64(400+trial)))
		}
		sec := MedianSeconds(ts)
		fmt.Fprintf(w, "%12d %12.2f\n", wsize, float64(s.Edges)/sec/1e6)
	}
}

// BuriolStudy reproduces the Section 4.2 observation that Buriol et al.'s
// estimator almost never finds a triangle on sparse graphs.
func BuriolStudy(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintln(w, "== Section 4.2: Buriol et al. baseline study ==")
	fmt.Fprintf(w, "%-16s %8s %12s %12s %14s\n", "dataset", "r", "found", "estimate", "true τ")
	for _, name := range []string{"syn3reg", "hepth-sim", "amazon-sim"} {
		d := Get(name)
		s := d.Stats()
		edges := ShuffledTrialStream(d, 0)
		r := 100000
		tr, found := RunBuriol(edges, r, uint64(s.Nodes), 1)
		fmt.Fprintf(w, "%-16s %8d %12d %12.0f %14d\n", name, r, found, tr.Estimate, s.Tau)
	}
	fmt.Fprintln(w, "(found = estimators that completed a triangle; cf. the paper's")
	fmt.Fprintln(w, " finding that the estimates are unusable on adjacency streams)")
}

// CliqueStudy exercises the Section 5.1 4-clique estimator against exact
// counts (experiment X1).
func CliqueStudy(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintln(w, "== Section 5.1: 4-clique counting (Theorem 5.5) ==")
	fmt.Fprintf(w, "%-24s %10s %12s %12s %10s\n", "graph", "true τ4", "estimate", "typeI/typeII", "err%")
	type cs struct {
		name  string
		edges []graph.Edge
	}
	// Graphs are kept small: the Type II completion probability is 1/m²
	// (Lemma 5.2), so the sufficient estimator count grows with
	// η = max{mΔ², m²} (Theorem 5.5) — the reason the paper calls the
	// clique extension "mostly of theoretical interest".
	rng := randx.New(77)
	cases := []cs{
		{"gadgets(25xK4,5xprism)", stream.Shuffle(gen.Syn3Reg(25, 5), rng)},
		{"holmekim(n=150,p=.9)", stream.Shuffle(gen.HolmeKim(randx.New(78), 150, 4, 0.9), rng)},
	}
	for _, c := range cases {
		g := graph.MustFromEdges(c.edges)
		truth := exact.Cliques4(g)
		cc := clique.NewCounter4(120000, 7)
		for _, e := range c.edges {
			cc.Add(e)
		}
		est := cc.EstimateCliques()
		t1, t2 := cc.EstimateTypeI(), cc.EstimateTypeII()
		errPct := 100 * abs(est-float64(truth)) / float64(truth)
		fmt.Fprintf(w, "%-24s %10d %12.1f %6.1f/%-6.1f %9.1f\n", c.name, truth, est, t1, t2, errPct)
	}
}

// WindowStudy exercises the Section 5.2 sliding-window counter
// (experiment X2): windowed accuracy and the chain length, whose
// expectation is e−1 ≈ 1.72 for any large w.
func WindowStudy(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintln(w, "== Section 5.2: sliding-window triangle counting (Theorem 5.8) ==")
	d := Get("syn3reg")
	edges := ShuffledTrialStream(d, 0)
	wsize := uint64(1000)
	// Exact count of the final window.
	tail := edges[len(edges)-int(wsize):]
	gw := graph.MustFromEdges(tail)
	truth := float64(exact.Triangles(gw))
	var sum, chain float64
	const seeds = 5
	for s := uint64(0); s < seeds; s++ {
		wc := window.NewCounter(8000, wsize, 500+s)
		for _, e := range edges {
			wc.Add(e)
		}
		sum += wc.EstimateTriangles()
		chain += wc.MeanChainLength()
	}
	fmt.Fprintf(w, "window=%d edges: true τ(window)=%.0f  estimate=%.1f  mean chain length=%.2f (e−1 = %.2f)\n",
		wsize, truth, sum/seeds, chain/seeds, math.E-1)
}

// TangleStudy reports the measured tangle coefficient γ versus 2Δ and
// compares mean vs median-of-means aggregation (ablation A1).
func TangleStudy(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintln(w, "== Section 3.2.1: tangle coefficient and aggregation ablation ==")
	fmt.Fprintf(w, "%-12s %10s %10s %12s %12s\n", "dataset", "γ", "2Δ", "mean err%", "MoM err%")
	for _, name := range []string{"syn3reg", "hepth-sim"} {
		d := Get(name)
		s := d.Stats()
		edges := ShuffledTrialStream(d, 0)
		ss := exact.ComputeStreamStats(edges)
		var meanErr, momErr float64
		const seeds = 5
		r := 1 << 14
		for sd := uint64(0); sd < seeds; sd++ {
			c := core.NewCounter(r, 900+sd)
			for lo := 0; lo < len(edges); lo += 8 * r {
				hi := lo + 8*r
				if hi > len(edges) {
					hi = len(edges)
				}
				c.AddBatch(edges[lo:hi])
			}
			truth := float64(s.Tau)
			meanErr += abs(c.EstimateTriangles()-truth) / truth
			momErr += abs(c.EstimateTrianglesMedianOfMeans(12)-truth) / truth
		}
		fmt.Fprintf(w, "%-12s %10.2f %10d %12.2f %12.2f\n",
			name, ss.Tangle, 2*s.MaxDeg, 100*meanErr/seeds, 100*momErr/seeds)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
