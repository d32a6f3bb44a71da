package bench

import (
	"bytes"
	"testing"
	"time"

	"streamtri/internal/core"
	"streamtri/internal/gen"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

// Core hot-path benchmarks: the flat AddBatch across batch sizes
// w ∈ {r/4, r, 4r}, and AddBatch at perfbench bulk-load's shape.

// CoreBenchStream returns the deterministic edge stream shared by all
// core benchmarks: an Erdős–Rényi graph streamed in shuffled order.
func CoreBenchStream(m int) []graph.Edge {
	n := m / 4
	if n < 64 {
		n = 64
	}
	rng := randx.New(0xC0DE)
	return stream.Shuffle(gen.ER(rng, n, m), rng)
}

// CoreBatchWidths returns the benchmarked batch sizes for r estimators,
// the w ∈ {r/4, r, 4r} sweep around the paper's w = Θ(r) regime.
func CoreBatchWidths(r int) []int {
	return []int{r / 4, r, 4 * r}
}

// streamInBatches drives one full pass of edges through c.
func streamInBatches(c *core.Counter, edges []graph.Edge, w int) {
	for lo := 0; lo < len(edges); lo += w {
		hi := lo + w
		if hi > len(edges) {
			hi = len(edges)
		}
		c.AddBatch(edges[lo:hi])
	}
}

// cpuMeter sums the process CPU time of a benchmark's timed stretches,
// as the benchmark's timer sums their wall time. failed records a
// reading the platform could not give.
type cpuMeter struct {
	since, sum time.Duration
	failed     bool
}

func (m *cpuMeter) read() time.Duration {
	t, ok := processCPU()
	m.failed = m.failed || !ok
	return t
}

func (m *cpuMeter) start() { m.since = m.read() }

func (m *cpuMeter) stop() { m.sum += m.read() - m.since }

// report gives the timed stretches' wall rate in Medges/s and, when
// every reading succeeded, their CPU ns per edge, for `edges` edges in
// all.
func (m *cpuMeter) report(b *testing.B, edges float64) {
	b.ReportMetric(edges/b.Elapsed().Seconds()/1e6, "Medges/s")
	if !m.failed {
		b.ReportMetric(float64(m.sum.Nanoseconds())/edges, "cpu-ns/edge")
	}
}

// stageMeter sums a counter's BatchStats over a benchmark's timed
// stretches, as cpuMeter sums their CPU time.
type stageMeter struct {
	since, sum core.BatchStats
}

func (m *stageMeter) start(c *core.Counter) { m.since = c.BatchStats() }

func (m *stageMeter) stop(c *core.Counter) {
	s := c.BatchStats()
	for p := range s.Phase {
		m.sum.Phase[p] += s.Phase[p] - m.since.Phase[p]
	}
	m.sum.Candidates += s.Candidates - m.since.Candidates
	m.sum.Hits += s.Hits - m.since.Hits
	m.sum.Rebuilds += s.Rebuilds - m.since.Rebuilds
}

// report gives, for `edges` edges in all, each AddBatch phase's wall ns
// per edge and the rest of the timed stretches' wall time as "other",
// so the stages sum to ns/op over the edges per op; the filter's
// candidates and hits per edge; and the index rebuilds per op.
func (m *stageMeter) report(b *testing.B, edges float64) {
	other := b.Elapsed()
	for p, name := range core.PhaseNames {
		b.ReportMetric(float64(m.sum.Phase[p].Nanoseconds())/edges, name+"-ns/edge")
		other -= m.sum.Phase[p]
	}
	b.ReportMetric(float64(other.Nanoseconds())/edges, "other-ns/edge")
	b.ReportMetric(float64(m.sum.Candidates)/edges, "cands/edge")
	b.ReportMetric(float64(m.sum.Hits)/edges, "hits/edge")
	b.ReportMetric(float64(m.sum.Rebuilds)/float64(b.N), "rebuilds/op")
}

// timePasses runs pass once untimed, to warm scratch tables, then b.N
// times on the benchmark's timer and a cpuMeter, and reports Medges/s
// and the process's CPU ns per edge for m edges per pass.
func timePasses(b *testing.B, m int, pass func()) {
	pass()
	b.ReportAllocs()
	var cpu cpuMeter
	b.ResetTimer()
	cpu.start()
	for i := 0; i < b.N; i++ {
		pass()
	}
	cpu.stop()
	b.StopTimer()
	cpu.report(b, float64(m)*float64(b.N))
}

// BenchCoreAddBatch is the body of BenchmarkAddBatchFlat: b.N full
// passes of the stream in batches of w through one persistent counter,
// after one untimed pass, so scratch tables reach steady state and the
// reported B/op reflects the per-batch allocation behavior. Beside
// timePasses' rates it reports the stages of AddBatch (stageMeter).
func BenchCoreAddBatch(b *testing.B, edges []graph.Edge, r, w int) {
	c := core.NewCounter(r, 1)
	streamInBatches(c, edges, w)
	b.ReportAllocs()
	var cpu cpuMeter
	var stages stageMeter
	b.ResetTimer()
	cpu.start()
	stages.start(c)
	for i := 0; i < b.N; i++ {
		streamInBatches(c, edges, w)
	}
	stages.stop(c)
	cpu.stop()
	b.StopTimer()
	m := float64(len(edges)) * float64(b.N)
	cpu.report(b, m)
	stages.report(b, m)
}

// Bulk-load's shape: perfbench's bulk-load workload feeds each tenant, a
// counter with r = 16,384 (created with p = 2, which no longer has an
// effect), one-batch POSTs of w = 8r edges of a Holme–Kim stream in
// growth order, with 8 edges per vertex and triad probability 0.5. Its
// timed phase starts at the 17th batch.
const (
	bulkLoadR         = 16384
	bulkLoadW         = 8 * bulkLoadR
	bulkLoadWarmup    = 16 // batches before the timed phase
	bulkLoadTimed     = 16 // distinct timed batches; the loop cycles them
	bulkLoadPerVertex = 8
	bulkLoadTriadProb = 0.5
)

// BulkLoadStream returns the stream of BenchCoreBulkLoad: the first
// (bulkLoadWarmup+bulkLoadTimed)·bulkLoadW edges of a Holme–Kim graph,
// in growth order.
func BulkLoadStream() []graph.Edge {
	m := (bulkLoadWarmup + bulkLoadTimed) * bulkLoadW
	return gen.HolmeKim(randx.New(0xB01D), m/bulkLoadPerVertex+bulkLoadPerVertex+1, bulkLoadPerVertex, bulkLoadTriadProb)[:m]
}

// BenchCoreBulkLoad prices Counter.AddBatch at bulk-load's shape:
// one batch per op, after bulkLoadWarmup untimed batches. When the
// stream runs out, the counter restarts, untimed, from its checkpoint
// at the end of the warm-up, so every timed batch is one of the 16
// after it, and the first after each restart rebuilds the batch index,
// as it does in trictd after a recovery.
func BenchCoreBulkLoad(b *testing.B, edges []graph.Edge) {
	w := bulkLoadW
	sc := core.NewCounter(bulkLoadR, 1)
	for k := 0; k < bulkLoadWarmup; k++ {
		sc.AddBatch(edges[k*w : (k+1)*w])
	}
	var warm bytes.Buffer
	if _, err := sc.WriteTo(&warm); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var cpu cpuMeter
	var stages stageMeter
	b.ResetTimer()
	cpu.start()
	stages.start(sc)
	for i, k := 0, bulkLoadWarmup; i < b.N; i, k = i+1, k+1 {
		if (k+1)*w > len(edges) {
			stages.stop(sc)
			cpu.stop()
			b.StopTimer()
			var err error
			if sc, err = core.ReadCounterFrom(bytes.NewReader(warm.Bytes())); err != nil {
				b.Fatal(err)
			}
			k = bulkLoadWarmup
			b.StartTimer()
			cpu.start()
			stages.start(sc)
		}
		sc.AddBatch(edges[k*w : (k+1)*w])
	}
	stages.stop(sc)
	cpu.stop()
	b.StopTimer()
	cpu.report(b, float64(w)*float64(b.N))
	stages.report(b, float64(w)*float64(b.N))
}
