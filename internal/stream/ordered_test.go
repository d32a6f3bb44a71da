package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"streamtri/internal/graph"
	"streamtri/internal/randx"
)

// tsErrorSource fails after yielding n timestamped edges.
type tsErrorSource struct {
	n   int
	pos int
}

func (s *tsErrorSource) NextTimestamped() (TimestampedEdge, error) {
	if s.pos >= s.n {
		return TimestampedEdge{}, fmt.Errorf("temporal decoder exploded at edge %d", s.pos)
	}
	e := TimestampedEdge{E: graph.Edge{U: graph.NodeID(s.pos), V: graph.NodeID(s.pos + 1)}, TS: int64(s.pos)}
	s.pos++
	return e, nil
}

// tsInfiniteSource never ends; timestamps increase forever.
type tsInfiniteSource struct{ i uint32 }

func (s *tsInfiniteSource) NextTimestamped() (TimestampedEdge, error) {
	s.i++
	return TimestampedEdge{E: graph.Edge{U: s.i, V: s.i + 1}, TS: int64(s.i)}, nil
}

// splitShards deals edges into k subsequences by a seeded random
// assignment, preserving relative order within each shard — the way a
// partitioned exporter splits one temporal stream across files.
func splitShards(edges []TimestampedEdge, k int, seed uint64) [][]TimestampedEdge {
	rng := randx.New(seed)
	shards := make([][]TimestampedEdge, k)
	for _, e := range edges {
		i := int(rng.Uint64N(uint64(k)))
		shards[i] = append(shards[i], e)
	}
	return shards
}

// The merge oracle: k shards of one timestamp-sorted stream, merged by
// the ordered pipeline, must reproduce the original stream exactly — for
// every k and every batch size, whatever the scheduler does.
func TestOrderedMultiPipelineReassemblesShards(t *testing.T) {
	base := goroutineBaseline()
	const n = 5000
	stream := tsEdges(n, 1_000_000) // strictly increasing timestamps
	for _, k := range []int{1, 2, 3, 4} {
		for _, w := range []int{1, 7, 256} {
			shards := splitShards(stream, k, uint64(k)*31+uint64(w))
			srcs := make([]TimestampedSource, k)
			for i := range srcs {
				srcs[i] = NewTimestampedSliceSource(shards[i])
			}
			p, err := NewOrderedMultiPipeline(context.Background(), srcs, w)
			if err != nil {
				t.Fatal(err)
			}
			var got []graph.Edge
			if rerr := p.Run(func(b []graph.Edge) error { got = append(got, b...); return nil }); rerr != nil {
				t.Fatal(rerr)
			}
			if len(got) != n {
				t.Fatalf("k=%d w=%d: merged %d of %d edges", k, w, len(got), n)
			}
			for i := range stream {
				if got[i] != stream[i].E {
					t.Fatalf("k=%d w=%d: edge %d = %v, want %v (merge must reassemble the sorted stream)",
						k, w, i, got[i], stream[i].E)
				}
			}
			st := p.Stats()
			if st.Edges != n || st.Batches == 0 {
				t.Fatalf("stats = %+v", st)
			}
		}
	}
	assertNoLeak(t, base)
}

// Equal timestamps across sources break ties by source index: with every
// timestamp identical, the merged stream is source 0 in full, then
// source 1, then source 2.
func TestOrderedMultiPipelineTieBreaksBySourceIndex(t *testing.T) {
	const per = 300
	srcs := make([]TimestampedSource, 3)
	var want []graph.Edge
	for i := range srcs {
		shard := make([]TimestampedEdge, per)
		for j := range shard {
			u := graph.NodeID(i*1_000_000 + j)
			shard[j] = TimestampedEdge{E: graph.Edge{U: u, V: u + 500_000}, TS: 42}
			want = append(want, shard[j].E)
		}
		srcs[i] = NewTimestampedSliceSource(shard)
	}
	p, err := NewOrderedMultiPipeline(context.Background(), srcs, 64)
	if err != nil {
		t.Fatal(err)
	}
	var got []graph.Edge
	if rerr := p.Run(func(b []graph.Edge) error { got = append(got, b...); return nil }); rerr != nil {
		t.Fatal(rerr)
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d of %d edges", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d = %v, want %v (ties must break by source index)", i, got[i], want[i])
		}
	}
}

// Determinism under repetition: the same shards merged twice produce the
// same batch sequence (run under -race in CI, where scheduler jitter is
// at its worst).
func TestOrderedMultiPipelineDeterministicAcrossRuns(t *testing.T) {
	stream := tsEdges(3000, 0)
	run := func() []graph.Edge {
		shards := splitShards(stream, 4, 99)
		srcs := make([]TimestampedSource, len(shards))
		for i := range srcs {
			srcs[i] = NewTimestampedSliceSource(shards[i])
		}
		p, err := NewOrderedMultiPipeline(context.Background(), srcs, 128)
		if err != nil {
			t.Fatal(err)
		}
		var got []graph.Edge
		if rerr := p.Run(func(b []graph.Edge) error { got = append(got, b...); return nil }); rerr != nil {
			t.Fatal(rerr)
		}
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs merged %d vs %d edges", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs across runs: %v vs %v", i, a[i], b[i])
		}
	}
}

// One of k sources failing mid-stream must stop the merge and the
// sibling decoders (infinite sources would otherwise spin forever), and
// surface that source's error.
func TestOrderedMultiPipelineFirstErrorStopsSiblings(t *testing.T) {
	base := goroutineBaseline()
	srcs := []TimestampedSource{
		&tsInfiniteSource{},
		&tsErrorSource{n: 25},
	}
	p, err := NewOrderedMultiPipeline(context.Background(), srcs, 8)
	if err != nil {
		t.Fatal(err)
	}
	var got error
	for {
		b, err := p.Next()
		if err != nil {
			got = err
			break
		}
		p.Recycle(b)
	}
	if got == io.EOF || got == nil {
		t.Fatalf("want the failing source's error, got %v", got)
	}
	if !strings.Contains(got.Error(), "temporal decoder exploded") {
		t.Fatalf("error = %v, want the tsErrorSource failure", got)
	}
	if cerr := p.Close(); cerr == nil || !strings.Contains(cerr.Error(), "temporal decoder exploded") {
		t.Fatalf("Close = %v, want the first decoder error", cerr)
	}
	assertNoLeak(t, base)
}

// Context cancellation must free decoders parked on exhausted credits
// and the merger with them (nobody consuming, every buffer in flight).
func TestOrderedMultiPipelineCancelWithDecodersParked(t *testing.T) {
	base := goroutineBaseline()
	ctx, cancel := context.WithCancel(context.Background())
	srcs := []TimestampedSource{&tsInfiniteSource{}, &tsInfiniteSource{i: 1 << 20}, &tsInfiniteSource{i: 1 << 21}}
	p, err := NewOrderedMultiPipeline(ctx, srcs, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Let every decoder wedge with the consumer absent, then cancel.
	time.Sleep(20 * time.Millisecond)
	cancel()
	var got error
	for {
		b, err := p.Next()
		if err != nil {
			got = err
			break
		}
		p.Recycle(b)
	}
	if !errors.Is(got, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", got)
	}
	if cerr := p.Close(); !errors.Is(cerr, context.Canceled) {
		t.Fatalf("Close = %v, want context.Canceled", cerr)
	}
	assertNoLeak(t, base)
}

func TestOrderedMultiPipelineCloseWithoutDraining(t *testing.T) {
	base := goroutineBaseline()
	srcs := []TimestampedSource{&tsInfiniteSource{}, &tsInfiniteSource{i: 1 << 20}}
	p, err := NewOrderedMultiPipeline(context.Background(), srcs, 16)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if cerr := p.Close(); cerr != nil {
		t.Fatalf("Close = %v, want nil for caller-initiated shutdown", cerr)
	}
	if cerr := p.Close(); cerr != nil {
		t.Fatalf("second Close = %v", cerr)
	}
	assertNoLeak(t, base)
}

func TestOrderedMultiPipelineBadArgs(t *testing.T) {
	src := NewTimestampedSliceSource(nil)
	if _, err := NewOrderedMultiPipeline(context.Background(), []TimestampedSource{src}, 0); err == nil {
		t.Fatal("want error for w=0")
	}
	if _, err := NewOrderedMultiPipeline(context.Background(), nil, 8); err == nil {
		t.Fatal("want error for zero sources")
	}
}

// Drain over two timestamped binary shards: the bulk FillTimestamped
// path feeds the merge from both files and the sink absorbs the merged
// stream in timestamp order, with the recycling contract intact.
func TestOrderedMultiPipelineDrainBinaryShards(t *testing.T) {
	base := goroutineBaseline()
	const n = 10_000
	stream := tsEdges(n, 7)
	shards := splitShards(stream, 2, 5)
	srcs := make([]TimestampedSource, len(shards))
	for i := range shards {
		var buf bytes.Buffer
		if err := WriteTimestampedBinaryEdges(&buf, shards[i]); err != nil {
			t.Fatal(err)
		}
		srcs[i] = NewTimestampedBinarySource(&buf)
	}
	p, err := NewOrderedMultiPipeline(context.Background(), srcs, 256)
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	got, derr := p.Drain(sink)
	if derr != nil {
		t.Fatal(derr)
	}
	if got != n || sink.edges != n {
		t.Fatalf("drained %d edges, sink saw %d, want %d", got, sink.edges, n)
	}
	if sink.violated {
		t.Fatal("a buffer was recycled while still in the sink's hands")
	}
	assertNoLeak(t, base)
}

// Per-source stats on a deliberately skewed split must attribute edges
// to the right source and sum to the aggregate.
func TestOrderedMultiPipelinePerSourceStats(t *testing.T) {
	const big, small = 4000, 137
	a := tsEdges(big, 0)
	b := make([]TimestampedEdge, small)
	for i := range b {
		u := graph.NodeID(1_000_000 + i)
		b[i] = TimestampedEdge{E: graph.Edge{U: u, V: u + 1}, TS: int64(2 * i)}
	}
	p, err := NewOrderedMultiPipeline(context.Background(),
		[]TimestampedSource{NewTimestampedSliceSource(a), NewTimestampedSliceSource(b)}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if rerr := p.Run(func([]graph.Edge) error { return nil }); rerr != nil {
		t.Fatal(rerr)
	}
	per := p.SourceStats()
	if len(per) != 2 {
		t.Fatalf("SourceStats has %d entries, want 2", len(per))
	}
	if per[0].Edges != big || per[1].Edges != small {
		t.Fatalf("per-source edges = %d/%d, want %d/%d", per[0].Edges, per[1].Edges, big, small)
	}
	agg := p.Stats()
	if per[0].Edges+per[1].Edges != agg.Edges {
		t.Fatalf("per-source edges sum %d != aggregate %d", per[0].Edges+per[1].Edges, agg.Edges)
	}
	if agg.Edges != big+small {
		t.Fatalf("aggregate edges = %d, want %d", agg.Edges, big+small)
	}
}
