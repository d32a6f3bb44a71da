package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamtri/internal/serve"
)

func TestPercentileSupport(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed: percentile must sort
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // rank 90, 10 beyond
		{99, 0.9, 90, false}, // rank 90, 9 beyond
		{20, 0.5, 10, true},  // rank 10, 10 beyond
		{19, 0.5, 10, false}, // rank 10, 9 beyond
		{1000, 0.99, 990, true},
		{1, 0.5, 1, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("an empty sample supports no percentile")
	}
}

// TestProcCPU reads this process's CPU time from /proc, the way the
// benchmark reads trictd's, and checks it against getrusage.
func TestProcCPU(t *testing.T) {
	deadline := time.Now().Add(300 * time.Millisecond)
	for x := uint64(1); time.Now().Before(deadline); x = x*6364136223846793005 + 1 {
	}
	got, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	want := cpuTime()
	// The two reads are a moment apart, and a thread's schedstat can lag
	// by up to a scheduler tick while the thread runs.
	if d := want - got; d < -20*time.Millisecond || d > 20*time.Millisecond || got < 200*time.Millisecond {
		t.Errorf("procCPU = %v, getrusage = %v", got, want)
	}
	if _, err := procCPU(-1); err == nil {
		t.Error("procCPU of no process must fail")
	}
}

func TestChunkCPURate(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		d := make([]time.Duration, len(v))
		for i, x := range v {
			d[i] = time.Duration(x) * time.Millisecond
		}
		return d
	}
	// Chunks of 100 edges taking 100, 50, 200, 100 and 400 ms of CPU:
	// 1000, 2000, 500, 1000 and 250 edges per CPU second.
	got, err := chunkCPURate([]uint64{100, 100, 100, 100, 100}, ms(0, 100, 150, 350, 450, 850))
	if err != nil || got != 1000 {
		t.Errorf("chunkCPURate = %v, %v; want the median chunk rate 1000", got, err)
	}
	if _, err := chunkCPURate([]uint64{100, 100}, ms(0, 10, 10)); err == nil {
		t.Error("a chunk without CPU time must fail")
	}
	if _, err := chunkCPURate([]uint64{100}, ms(0)); err == nil {
		t.Error("chunks and CPU readings must match")
	}
}

// TestWallClockNotes: the ungated wall-clock lines print a percentile
// only when minTail samples lie beyond it.
func TestWallClockNotes(t *testing.T) {
	lr := &loadResult{ackedEdges: 3000, wall: 2 * time.Second}
	for i := 1; i <= 100; i++ {
		lr.ackMs = append(lr.ackMs, float64(i))
	}
	lr.estMs = lr.ackMs[:20]
	got := strings.Join(wallClockNotes(lr), "\n")
	for _, want := range []string{
		"edges_per_s                                            1500 1/s",
		"ack_p50_ms                                               50 ms (100 samples",
		"ack_p90_ms                                               90 ms (100 samples",
		"estimate_p50_ms                                          10 ms (20 samples",
		"estimate_p90_ms                                           - (20 samples, too few)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("wall-clock lines lack %q:\n%s", want, got)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(values, n=4) gives for the same input.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 0.5, 2.2, 9.7, 4.4, 1.0, 7.3}, [3]float64{1.0, 3.1, 7.3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{2, 8, 4}, [3]float64{2, 4, 8}},
	} {
		q1, med, q3 := quartiles(c.in)
		for i, got := range []float64{q1, med, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, med, q3, c.want)
				break
			}
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestOpenLoopLateness: the reader keeps its schedule when the server
// is slow, so GET k is due at start + k/rate however late it goes out;
// its latency counts from the due time and includes the lateness.
func TestOpenLoopLateness(t *testing.T) {
	const service = 20 * time.Millisecond
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		time.Sleep(service)
		json.NewEncoder(w).Encode(serve.EstimateResult{Edges: 1})
	}))
	defer ts.Close()
	in := &inputs{plan: plan{workload: &workload{numTenants: 1, readRate: 200}, seconds: 1},
		tenants: []tenantInputs{{name: "t0"}}}
	c := newClient(ts.URL)
	defer c.close()
	stop := make(chan struct{})
	start := time.Now()
	time.AfterFunc(200*time.Millisecond, func() { close(stop) })
	var timedFrom atomic.Int64
	gets := runReader(c, in, start, stop, nil, &timedFrom)
	if len(gets) < 5 {
		t.Fatalf("only %d GETs", len(gets))
	}
	interval := 5 * time.Millisecond
	for k, g := range gets {
		if want := start.Add(time.Duration(k) * interval); !g.due.Equal(want) {
			t.Fatalf("GET %d due %v after start, want %v", k, g.due.Sub(start), want.Sub(start))
		}
		late, lat := g.sent.Sub(g.due), g.done.Sub(g.due)
		if late < 0 || lat < late+service {
			t.Fatalf("GET %d: late %v, latency %v; latency must cover lateness plus %v of service", k, late, lat, service)
		}
	}
	// A 20ms service time against a 5ms schedule: lateness grows by
	// about 15ms per GET.
	last := gets[len(gets)-1]
	if late := last.sent.Sub(last.due); late < time.Duration(len(gets)-1)*10*time.Millisecond {
		t.Errorf("GET %d went out only %v late; the schedule must not slow down with the server", len(gets)-1, late)
	}
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

func TestMetricNameValidation(t *testing.T) {
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "ack:p50", strings.Repeat("a", 65), "é"} {
		if metricNameRE.MatchString(bad) {
			t.Errorf("name %q must be rejected", bad)
		}
	}
	for _, good := range []string{"edges_per_s", "serve.ingest_ms", "a-b.c_d", "9x"} {
		if !metricNameRE.MatchString(good) {
			t.Errorf("name %q must be accepted", good)
		}
	}

	f := readBenchmarkFile(t)
	seen := make(map[string]bool)
	check := func(kind string, ms []benchMetric) map[string]string {
		units := make(map[string]string)
		for _, m := range ms {
			if !metricNameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s metric name %q is invalid or repeated", kind, m.Name)
			}
			seen[m.Name] = true
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s metric %q: invalid unit %q", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %q: better = %q", kind, m.Name, m.Better)
			}
			if kind == "end_to_end" && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("end-to-end metric %q needs a bound in (0, 0.25]", m.Name)
			}
			if kind == "per_layer" && m.Bound != nil {
				t.Errorf("per-layer metric %q has a bound", m.Name)
			}
			units[m.Name] = m.Unit
		}
		return units
	}
	e2e, layers := check("end_to_end", f.EndToEnd), check("per_layer", f.PerLayer)
	if u := e2e["setup_s"]; u != "s" {
		t.Errorf("setup_s must be an end-to-end metric in s, got %q", u)
	}
	for _, w := range f.Workloads {
		if !metricNameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: invalid name or why", w.Name)
		}
		wl, err := lookupWorkload(w.Name)
		if err != nil {
			t.Error(err)
		} else if wl.why != w.Why {
			t.Errorf("workload %q: why differs from the code's:\n%s\n%s", w.Name, w.Why, wl.why)
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(f.Workloads), len(workloads))
	}
	if len(e2e) == 0 || len(layers) == 0 {
		t.Error("BENCHMARK.json needs end-to-end and per-layer metrics")
	}
}

func TestSpanTree(t *testing.T) {
	ns := func(ms int64) int64 { return ms * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "loadgen.post", Start: ns(0), End: ns(10)},
		{ID: 2, Parent: 1, Name: "serve.ingest", Start: ns(1), End: ns(9)},
		{ID: 3, Name: "replay.post", Start: ns(20), End: ns(30)},
		{ID: 4, Parent: 3, Name: "stream.fill", Start: ns(20), End: ns(24)},
		{ID: 5, Parent: 3, Name: "counter.add_batch", Start: ns(22), End: ns(26)}, // overlaps 4
		{ID: 6, Parent: 3, Name: "serve.wal_sync", Start: ns(28), End: ns(29)},
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	for id, want := range map[int32]time.Duration{1: 2 * time.Millisecond, 2: 8 * time.Millisecond, 3: 3 * time.Millisecond, 4: 4 * time.Millisecond} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	for name, bad := range map[string][]span{
		"child outside parent": {{ID: 1, Name: "p", Start: 0, End: 10}, {ID: 2, Parent: 1, Name: "c", Start: 5, End: 11}},
		"unknown parent":       {{ID: 1, Parent: 7, Name: "c", Start: 0, End: 1}},
		"ends before start":    {{ID: 1, Name: "c", Start: 5, End: 4}},
		"never finished":       {{ID: 0}},
	} {
		if err := checkSpans(bad); err == nil {
			t.Errorf("%s: checkSpans accepted it", name)
		}
	}

	// The tracer hands out ids that resolve to the spans finished under them.
	tr := newTracer()
	p := tr.reserve()
	now := time.Now()
	c := tr.add("child", p, p, now.Add(time.Millisecond), now.Add(2*time.Millisecond), true)
	tr.finish(p, "parent", 0, p, now, now.Add(3*time.Millisecond), true)
	got := tr.snapshot()
	if err := checkSpans(got); err != nil || got[c-1].Parent != p || got[p-1].Name != "parent" {
		t.Fatalf("tracer spans %+v: %v", got, err)
	}
}

// tiny returns w scaled down so one run takes a second or two: small
// counters and bodies, a few POSTs per phase.
func tiny(w *workload) *workload {
	c := *w
	c.cfg.R = max(w.cfg.R/64, 8)
	if c.cfg.Window > 0 {
		c.cfg.Window = 3000
	}
	c.bodyEdges = min(w.bodyEdges, 8*c.cfg.R)
	if w.format == formatBlock {
		c.bodyEdges = 2 * 8 * c.cfg.R // two batches per POST, as at full scale
	}
	c.prefixPosts, c.tailPosts, c.warmPosts = 2, 3, 2*w.numTenants
	c.postsPerSec = float64(2 * timedChunks * w.numTenants)
	c.readRate = 500
	return &c
}

// TestTinyWorkloads runs every workload at tiny scale through both the
// untraced run against a freshly built trictd and the traced run, with
// all their correctness checks.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds trictd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "trictd")
	if out, err := exec.Command("go", "build", "-o", bin, "streamtri/cmd/trictd").CombinedOutput(); err != nil {
		t.Fatalf("building trictd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			logf := func(format string, args ...any) { t.Logf(format, args...) }
			p := newPlan(tiny(w), 7, 1)
			in, err := prepareInputs(p, bin, filepath.Join(dir, "cache"), logf)
			if err != nil {
				t.Fatal(err)
			}
			// A second preparation must come from the cache, identically.
			again, err := prepareInputs(p, bin, filepath.Join(dir, "cache"), logf)
			if err != nil {
				t.Fatal(err)
			}
			if again.ref.Final[0] != in.ref.Final[0] || string(again.tenants[0].bodies[0]) != string(in.tenants[0].bodies[0]) {
				t.Fatal("cached inputs differ from generated ones")
			}
			for trace, run := range map[int]func(string) (*output, error){
				0: func(runDir string) (*output, error) { return runServe(in, bin, runDir, logf) },
				1: func(runDir string) (*output, error) { return runTraced(in, runDir, filepath.Join(dir, "traces"), logf) },
			} {
				runDir := filepath.Join(dir, "run-"+w.name+string(rune('0'+trace)))
				if err := os.MkdirAll(runDir, 0o755); err != nil {
					t.Fatal(err)
				}
				out, err := run(runDir)
				if err != nil {
					t.Fatalf("trace=%d: %v", trace, err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
					t.Fatalf("trace=%d: correct=%v failed=%d/%d problems=%v", trace, out.Correct, out.Failed, out.Attempted, out.problems)
				}
				checkMetricSet(t, trace, out)
			}
		})
	}
}

// checkMetricSet asserts a run printed exactly BENCHMARK.json's metrics
// for its mode, in their units.
func checkMetricSet(t *testing.T, trace int, out *output) {
	t.Helper()
	f := readBenchmarkFile(t)
	want := make(map[string]string)
	for _, m := range map[int][]benchMetric{0: f.EndToEnd, 1: f.PerLayer}[trace] {
		want[m.Name] = m.Unit
	}
	var got []string
	for name, m := range out.Metrics {
		got = append(got, name)
		if u, ok := want[name]; !ok || u != m.Unit {
			t.Errorf("trace=%d: metric %q in %q is not in BENCHMARK.json with that unit", trace, name, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("trace=%d: metric %q = %v", trace, name, m.Value)
		}
	}
	if len(got) != len(want) {
		sort.Strings(got)
		t.Errorf("trace=%d: printed %d metrics %v, BENCHMARK.json names %d", trace, len(got), got, len(want))
	}
}
