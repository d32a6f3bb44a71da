package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"streamtri/internal/graph"
)

// Fault-injection harness: flaky readers and sources that truncate,
// fail mid-stream, or interleave garbage, driving the robustness layer
// (decode-error budgets, source-failure isolation) through the same
// leak-checked property style as the clean-path pipeline tests.

// flakyReader serves the first n bytes of r, then fails with err — an
// I/O fault injected mid-stream, after some records decoded cleanly.
type flakyReader struct {
	r   io.Reader
	n   int
	err error
}

func (f *flakyReader) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	n, err := f.r.Read(p)
	f.n -= n
	return n, err
}

// dirtyEdgeList renders edges as text with a garbage line injected
// every `every` lines (0 = clean), returning the payload and how many
// garbage lines it injected.
func dirtyEdgeList(edges []graph.Edge, every int) ([]byte, int) {
	var buf bytes.Buffer
	bad := 0
	for i, e := range edges {
		if every > 0 && i%every == every-1 {
			fmt.Fprintf(&buf, "garbage line %d\n", bad)
			bad++
		}
		fmt.Fprintf(&buf, "%d\t%d\n", e.U, e.V)
	}
	return buf.Bytes(), bad
}

func faultEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.NodeID(i), V: graph.NodeID(i + n)}
	}
	return edges
}

// A budget at least as large as the number of garbage lines skips all
// of them: every good edge arrives in order, skips are counted, and the
// first few messages are retained.
func TestPipelineBudgetSkipsGarbageLines(t *testing.T) {
	base := goroutineBaseline()
	want := faultEdges(1000)
	payload, bad := dirtyEdgeList(want, 100)
	p, err := NewPipeline(t.Context(), NewTextSource(bytes.NewReader(payload)), 64, 2,
		WithMaxBadRecords(bad))
	if err != nil {
		t.Fatal(err)
	}
	var got []graph.Edge
	if err := p.Run(func(batch []graph.Edge) error {
		got = append(got, batch...)
		return nil
	}); err != nil {
		t.Fatalf("run with sufficient budget: %v", err)
	}
	p.Close()
	if len(got) != len(want) {
		t.Fatalf("got %d edges, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("edge %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	st := p.Stats()
	if st.BadRecords != uint64(bad) {
		t.Fatalf("BadRecords = %d, want %d", st.BadRecords, bad)
	}
	if len(st.BadRecordSamples) == 0 || len(st.BadRecordSamples) > maxBadSamples {
		t.Fatalf("retained %d samples, want 1..%d", len(st.BadRecordSamples), maxBadSamples)
	}
	if !strings.Contains(st.BadRecordSamples[0], "garbage line 0") {
		t.Fatalf("first sample %q does not quote the offending line", st.BadRecordSamples[0])
	}
	assertNoLeak(t, base)
}

// One garbage line past the budget fails the run, and the error carries
// the retained samples so the failure is diagnosable from the message
// alone.
func TestPipelineBudgetExceeded(t *testing.T) {
	base := goroutineBaseline()
	payload, bad := dirtyEdgeList(faultEdges(1000), 50)
	p, err := NewPipeline(t.Context(), NewTextSource(bytes.NewReader(payload)), 64, 2,
		WithMaxBadRecords(bad-1))
	if err != nil {
		t.Fatal(err)
	}
	runErr := p.Run(func([]graph.Edge) error { return nil })
	p.Close()
	if runErr == nil {
		t.Fatal("run succeeded with budget one short of the garbage count")
	}
	for _, frag := range []string{"decode-error budget exceeded", "samples:", "garbage line 0"} {
		if !strings.Contains(runErr.Error(), frag) {
			t.Fatalf("error %q missing %q", runErr, frag)
		}
	}
	assertNoLeak(t, base)
}

// A truncated binary tail is one bad record: within budget the complete
// records all arrive and the run ends cleanly.
func TestPipelineBudgetTruncatedBinaryTail(t *testing.T) {
	base := goroutineBaseline()
	want := faultEdges(500)
	var buf bytes.Buffer
	if err := WriteBinaryEdges(&buf, want); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()[:buf.Len()-3] // chop into the last record
	p, err := NewPipeline(t.Context(), NewBinarySource(bytes.NewReader(payload)), 64, 2,
		WithMaxBadRecords(1))
	if err != nil {
		t.Fatal(err)
	}
	var got []graph.Edge
	if err := p.Run(func(batch []graph.Edge) error {
		got = append(got, batch...)
		return nil
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	p.Close()
	if len(got) != len(want)-1 {
		t.Fatalf("got %d edges, want %d complete records", len(got), len(want)-1)
	}
	if st := p.Stats(); st.BadRecords != 1 {
		t.Fatalf("BadRecords = %d, want 1", st.BadRecords)
	}
	assertNoLeak(t, base)
}

// The budget skips only record-confined failures: an I/O error surfaces
// immediately even with budget to spare.
func TestPipelineBudgetDoesNotMaskIOErrors(t *testing.T) {
	base := goroutineBaseline()
	payload, _ := dirtyEdgeList(faultEdges(1000), 0)
	injected := errors.New("injected I/O fault")
	src := NewTextSource(&flakyReader{r: bytes.NewReader(payload), n: len(payload) / 2, err: injected})
	p, err := NewPipeline(t.Context(), src, 64, 2, WithMaxBadRecords(1000))
	if err != nil {
		t.Fatal(err)
	}
	runErr := p.Run(func([]graph.Edge) error { return nil })
	p.Close()
	if !errors.Is(runErr, injected) {
		t.Fatalf("run error %v does not wrap the injected I/O fault", runErr)
	}
	assertNoLeak(t, base)
}

// Kill one of k: under continue-on-source-failure the dead source's
// edges-so-far arrive, the survivors finish completely, the run returns
// nil, and the terminal error lands in the dead source's stats entry.
func TestMultiPipelineContinueOnSourceFailure(t *testing.T) {
	base := goroutineBaseline()
	const perSource, failAt = 2000, 137
	srcs := []Source{
		NewSliceSource(sourceEdges(0, perSource)),
		&errorSource{n: failAt},
		NewSliceSource(sourceEdges(2, perSource)),
	}
	p, err := NewMergedPipeline(t.Context(), srcs, 64, WithContinueOnSourceFailure())
	if err != nil {
		t.Fatal(err)
	}
	var total int
	if err := p.Run(func(batch []graph.Edge) error {
		total += len(batch)
		return nil
	}); err != nil {
		t.Fatalf("run with one dead source: %v", err)
	}
	p.Close()
	if want := 2*perSource + failAt; total != want {
		t.Fatalf("delivered %d edges, want %d (survivors complete + dead source's prefix)", total, want)
	}
	stats := p.SourceStats()
	if stats[1].Err == nil || !strings.Contains(stats[1].Err.Error(), "source 1") ||
		!strings.Contains(stats[1].Err.Error(), "decoder exploded") {
		t.Fatalf("dead source terminal error = %v", stats[1].Err)
	}
	for _, i := range []int{0, 2} {
		if stats[i].Err != nil {
			t.Fatalf("survivor %d has terminal error %v", i, stats[i].Err)
		}
		if stats[i].Edges != perSource {
			t.Fatalf("survivor %d delivered %d edges, want %d", i, stats[i].Edges, perSource)
		}
	}
	if stats[1].Edges != failAt {
		t.Fatalf("dead source delivered %d edges, want %d", stats[1].Edges, failAt)
	}
	assertNoLeak(t, base)
}

// Mid-batch I/O fault on one binary source: isolation confines it while
// the healthy source streams to completion.
func TestMultiPipelineIsolatesMidStreamIOError(t *testing.T) {
	base := goroutineBaseline()
	const perSource = 3000
	var healthy, doomed bytes.Buffer
	if err := WriteBinaryEdges(&healthy, sourceEdges(0, perSource)); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryEdges(&doomed, sourceEdges(1, perSource)); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("disk dropped off the bus")
	srcs := []Source{
		NewBinarySource(bytes.NewReader(healthy.Bytes())),
		NewBinarySource(&flakyReader{r: bytes.NewReader(doomed.Bytes()), n: doomed.Len() / 2, err: injected}),
	}
	p, err := NewMergedPipeline(t.Context(), srcs, 128, WithContinueOnSourceFailure())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(func([]graph.Edge) error { return nil }); err != nil {
		t.Fatalf("run: %v", err)
	}
	p.Close()
	stats := p.SourceStats()
	if stats[0].Err != nil || stats[0].Edges != perSource {
		t.Fatalf("healthy source: err=%v edges=%d, want nil/%d", stats[0].Err, stats[0].Edges, perSource)
	}
	if !errors.Is(stats[1].Err, injected) {
		t.Fatalf("doomed source terminal error %v does not wrap the injected fault", stats[1].Err)
	}
	if stats[1].Edges == 0 || stats[1].Edges >= perSource {
		t.Fatalf("doomed source delivered %d edges, want a strict mid-stream prefix", stats[1].Edges)
	}
	assertNoLeak(t, base)
}

// When every source dies the isolation policy has nothing to save: the
// run fails, saying so.
func TestMultiPipelineAllSourcesFailed(t *testing.T) {
	base := goroutineBaseline()
	srcs := []Source{&errorSource{n: 10}, &errorSource{n: 20}, &errorSource{n: 30}}
	p, err := NewMergedPipeline(t.Context(), srcs, 16, WithContinueOnSourceFailure())
	if err != nil {
		t.Fatal(err)
	}
	runErr := p.Run(func([]graph.Edge) error { return nil })
	p.Close()
	if runErr == nil || !strings.Contains(runErr.Error(), "all 3 sources failed") {
		t.Fatalf("run error = %v, want all-sources-failed", runErr)
	}
	assertNoLeak(t, base)
}

// Budgets compose with isolation: a source that exhausts its budget is
// abandoned like any other failure, and its samples ride along in the
// recorded terminal error.
func TestMultiPipelineBudgetExhaustionIsolated(t *testing.T) {
	base := goroutineBaseline()
	const perSource = 1000
	dirty, bad := dirtyEdgeList(faultEdges(perSource), 20)
	srcs := []Source{
		NewSliceSource(sourceEdges(0, perSource)),
		NewTextSource(bytes.NewReader(dirty)),
	}
	p, err := NewMergedPipeline(t.Context(), srcs, 64,
		WithContinueOnSourceFailure(), WithMaxBadRecords(bad/2))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(func([]graph.Edge) error { return nil }); err != nil {
		t.Fatalf("run: %v", err)
	}
	p.Close()
	stats := p.SourceStats()
	if stats[0].Err != nil {
		t.Fatalf("clean source has terminal error %v", stats[0].Err)
	}
	if stats[1].Err == nil || !strings.Contains(stats[1].Err.Error(), "decode-error budget exceeded") {
		t.Fatalf("dirty source terminal error = %v", stats[1].Err)
	}
	if stats[1].BadRecords != uint64(bad/2)+1 {
		t.Fatalf("dirty source BadRecords = %d, want %d", stats[1].BadRecords, bad/2+1)
	}
	if agg := p.Stats(); agg.BadRecords != stats[1].BadRecords {
		t.Fatalf("aggregate BadRecords = %d, want %d", agg.BadRecords, stats[1].BadRecords)
	}
	assertNoLeak(t, base)
}

// Per-source budget skips are a pure function of each source's bytes,
// so the ordered merge stays bit-for-bit deterministic across runs even
// while records are being skipped.
func TestOrderedMultiPipelineBudgetDeterministic(t *testing.T) {
	base := goroutineBaseline()
	mkSrcs := func() []TimestampedSource {
		var a, b bytes.Buffer
		edges := tsEdges(4000, 1_000_000)
		shards := splitShards(edges, 2, 3)
		if err := WriteTimestampedEdgeList(&a, shards[0]); err != nil {
			t.Fatal(err)
		}
		if err := WriteTimestampedEdgeList(&b, shards[1]); err != nil {
			t.Fatal(err)
		}
		// Corrupt one line per shard body, far apart.
		pa := bytes.Replace(a.Bytes(), []byte("\t"), []byte("\tX"), 1)
		pb := bytes.Replace(b.Bytes(), []byte("\t"), []byte("\tX"), 1)
		return []TimestampedSource{
			NewTimestampedTextSource(bytes.NewReader(pa)),
			NewTimestampedTextSource(bytes.NewReader(pb)),
		}
	}
	run := func() []graph.Edge {
		p, err := NewOrderedMultiPipeline(t.Context(), mkSrcs(), 64, WithMaxBadRecords(2))
		if err != nil {
			t.Fatal(err)
		}
		var got []graph.Edge
		if err := p.Run(func(batch []graph.Edge) error {
			got = append(got, batch...)
			return nil
		}); err != nil {
			t.Fatalf("ordered run with budget: %v", err)
		}
		defer p.Close()
		if st := p.Stats(); st.BadRecords == 0 {
			t.Fatal("no records skipped; corruption did not take")
		}
		return got
	}
	first := run()
	for round := 0; round < 3; round++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("round %d: %d edges vs %d", round, len(again), len(first))
		}
		for i := range again {
			if again[i] != first[i] {
				t.Fatalf("round %d: edge %d differs: %+v vs %+v", round, i, again[i], first[i])
			}
		}
	}
	assertNoLeak(t, base)
}

// A malformed record in the middle of an adapted source's block is
// charged exactly once, after the records decoded before it reach the
// merge: without a budget the run fails on it, naming the source; within
// budget each bad line is skipped and counted once; one short of the
// budget, the second bad line trips the exceeded error.
func TestOrderedMultiPipelineBudgetMidBlock(t *testing.T) {
	base := goroutineBaseline()
	clean := tsShard(0, 100, func(i int) int64 { return int64(i) })
	var buf bytes.Buffer
	if err := WriteTimestampedEdgeList(&buf, clean); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	lines[40], lines[70] = []byte("garbage line\n"), []byte("1 2 x\n")
	dirty := bytes.Join(lines, nil)
	other := tsShard(1, 50, func(i int) int64 { return int64(2 * i) })

	run := func(opts ...PipeOption) ([]graph.Edge, PipelineStats, error) {
		p, err := NewOrderedMultiPipeline(t.Context(), []TimestampedSource{
			NewTimestampedTextSource(bytes.NewReader(dirty)),
			NewTimestampedSliceSource(other),
		}, 64, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var got []graph.Edge
		runErr := p.Run(func(b []graph.Edge) error { got = append(got, b...); return nil })
		p.Close()
		return got, p.Stats(), runErr
	}

	_, _, err := run()
	var rec *RecordError
	if !errors.As(err, &rec) || !strings.HasPrefix(err.Error(), "source 0: ") {
		t.Fatalf("unbudgeted run error = %v, want source 0's record error", err)
	}

	got, st, err := run(WithMaxBadRecords(2))
	if err != nil {
		t.Fatalf("run within budget: %v", err)
	}
	if st.BadRecords != 2 {
		t.Fatalf("BadRecords = %d, want 2 (one per bad line)", st.BadRecords)
	}
	kept := append(append(append([]TimestampedEdge(nil), clean[:40]...), clean[41:70]...), clean[71:]...)
	assertMergeEqual(t, got, referenceMerge([][]TimestampedEdge{kept, other}), "within budget")

	if _, _, err = run(WithMaxBadRecords(1)); err == nil ||
		!strings.Contains(err.Error(), "decode-error budget exceeded: 2 malformed records over budget 1") {
		t.Fatalf("over-budget run error = %v", err)
	}
	assertNoLeak(t, base)
}

// Garbage, truncation, and disorder at once: a watermark stage over a
// budgeted, block-shuffled, corrupted text shard still produces the
// sort-first oracle's stream.
func TestWatermarkPipelineSurvivesDirtyShards(t *testing.T) {
	base := goroutineBaseline()
	const n = 3000
	sorted := tsEdges(n, 10_000)
	arrivals := blockShuffle(sorted, 9, 5)
	var buf bytes.Buffer
	if err := WriteTimestampedEdgeList(&buf, arrivals); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Replace(buf.Bytes(), []byte("\t"), []byte("garbage\t"), 1)
	src := NewTimestampedTextSource(bytes.NewReader(payload))
	wm := NewWatermarkSource(src, 8, LateCount, nil)
	p, err := NewOrderedMultiPipeline(t.Context(), []TimestampedSource{wm}, 64, WithMaxBadRecords(1))
	if err != nil {
		t.Fatal(err)
	}
	var got []graph.Edge
	if err := p.Run(func(batch []graph.Edge) error {
		got = append(got, batch...)
		return nil
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	p.Close()
	// The corrupted record is arrivals[0] (the first line holds the
	// first tab); the output must be the sorted stream minus exactly
	// that edge.
	var want []graph.Edge
	for _, e := range sorted {
		if e != arrivals[0] {
			want = append(want, e.E)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d edges, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("edge %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if wm.LateEdges() != 0 {
		t.Fatalf("late edges: %d, want 0", wm.LateEdges())
	}
	assertNoLeak(t, base)
}
