package stream

import (
	"bytes"
	"context"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"streamtri/internal/graph"
)

// sourceEdges builds n edges tagged with a source id so merged output can
// be attributed: U encodes (src, seq), V just differs from U.
func sourceEdges(src, n int) []graph.Edge {
	out := make([]graph.Edge, n)
	for i := range out {
		u := graph.NodeID(src*1_000_000 + i)
		out[i] = graph.Edge{U: u, V: u + 500_000}
	}
	return out
}

func TestMultiPipelineMergesAllSourcesPreservingPerSourceOrder(t *testing.T) {
	base := goroutineBaseline()
	const nsrc, per = 3, 157
	srcs := make([]Source, nsrc)
	for i := range srcs {
		srcs[i] = NewSliceSource(sourceEdges(i, per))
	}
	p, err := NewMultiPipeline(context.Background(), srcs, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	perSource := make([][]graph.Edge, nsrc)
	rerr := p.Run(func(b []graph.Edge) error {
		for _, e := range b {
			id := int(e.U) / 1_000_000
			perSource[id] = append(perSource[id], e)
		}
		return nil
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
	for i := range perSource {
		want := sourceEdges(i, per)
		if len(perSource[i]) != per {
			t.Fatalf("source %d delivered %d of %d edges", i, len(perSource[i]), per)
		}
		for j := range want {
			if perSource[i][j] != want[j] {
				t.Fatalf("source %d edge %d out of order: %v != %v", i, j, perSource[i][j], want[j])
			}
		}
	}
	st := p.Stats()
	if st.Edges != nsrc*per || st.Batches == 0 {
		t.Fatalf("stats = %+v", st)
	}
	assertNoLeak(t, base)
}

func TestMultiPipelineSingleSourceIsOrdered(t *testing.T) {
	in := edges(200)
	p, err := NewMultiPipeline(context.Background(), []Source{NewSliceSource(in)}, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []graph.Edge
	if err := p.Run(func(b []graph.Edge) error { got = append(got, b...); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("delivered %d of %d edges", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("edge %d out of order", i)
		}
	}
}

func TestMultiPipelineBadArgs(t *testing.T) {
	if _, err := NewMultiPipeline(context.Background(), []Source{NewSliceSource(nil)}, 0, 2); err == nil {
		t.Fatal("want error for w=0")
	}
	if _, err := NewMultiPipeline(context.Background(), nil, 8, 2); err == nil {
		t.Fatal("want error for zero sources")
	}
}

// One of N sources failing mid-stream must stop the whole merge and
// surface that source's error (first-error-wins); the healthy sources'
// pre-error batches remain valid.
func TestMultiPipelineFirstErrorPropagates(t *testing.T) {
	base := goroutineBaseline()
	srcs := []Source{
		NewSliceSource(sourceEdges(0, 500)),
		&errorSource{n: 25},
		NewSliceSource(sourceEdges(2, 500)),
	}
	p, err := NewMultiPipeline(context.Background(), srcs, 10, 2)
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
	if !strings.Contains(got.Error(), "decoder exploded") {
		t.Fatalf("error = %v, want the errorSource failure", got)
	}
	if cerr := p.Close(); cerr == nil || !strings.Contains(cerr.Error(), "decoder exploded") {
		t.Fatalf("Close = %v, want the first decoder error", cerr)
	}
	assertNoLeak(t, base)
}

// A failing source must also interrupt sibling decoders that are mid
// stream (not let them run to EOF): infinite sources would otherwise
// spin forever once the ring frees up.
func TestMultiPipelineErrorStopsSiblingDecoders(t *testing.T) {
	base := goroutineBaseline()
	srcs := []Source{
		&infiniteSource{},
		&errorSource{n: 5},
	}
	p, err := NewMultiPipeline(context.Background(), srcs, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for {
		b, err := p.Next()
		if err != nil {
			if err == io.EOF {
				t.Fatal("want decoder error, got clean EOF")
			}
			break
		}
		p.Recycle(b)
	}
	p.Close()
	assertNoLeak(t, base)
}

// Context cancellation must free decoders that are all parked on an
// exhausted ring (nobody consuming, every buffer filled and queued).
func TestMultiPipelineCancelWithDecodersParked(t *testing.T) {
	base := goroutineBaseline()
	ctx, cancel := context.WithCancel(context.Background())
	srcs := []Source{&infiniteSource{}, &infiniteSource{i: 1 << 20}, &infiniteSource{i: 1 << 21}}
	p, err := NewMultiPipeline(ctx, srcs, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Let every decoder wedge: 3 ring buffers all filled and parked in
	// the out channel, all three decoders blocked on the empty ring.
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

func TestMultiPipelineCloseWithoutDraining(t *testing.T) {
	base := goroutineBaseline()
	srcs := []Source{&infiniteSource{}, &infiniteSource{i: 1 << 20}}
	p, err := NewMultiPipeline(context.Background(), srcs, 16, 4)
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

// Per-source stats on a deliberately skewed pair of inputs: each
// source's count reflects its own stream and the counts sum to the
// aggregate (the trict -i a -i b skew report depends on this).
func TestMultiPipelinePerSourceStats(t *testing.T) {
	const big, small = 3000, 117
	srcs := []Source{
		NewSliceSource(sourceEdges(0, big)),
		NewSliceSource(sourceEdges(1, small)),
	}
	p, err := NewMultiPipeline(context.Background(), srcs, 64, 0)
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
	if per[0].Edges+per[1].Edges != agg.Edges || agg.Edges != big+small {
		t.Fatalf("per-source sum %d != aggregate %d (want %d)", per[0].Edges+per[1].Edges, agg.Edges, big+small)
	}
	if per[0].Batches+per[1].Batches != agg.Batches {
		t.Fatalf("per-source batches sum %d != aggregate %d", per[0].Batches+per[1].Batches, agg.Batches)
	}
}

// Drain over several binary shards: the bulk Fill path feeds the shared
// ring from every source and the sink absorbs the union of the shards,
// each shard's edges in order.
func TestMultiPipelineDrainBinaryShards(t *testing.T) {
	base := goroutineBaseline()
	const nsrc, per = 2, 5000
	srcs := make([]Source, nsrc)
	for i := range srcs {
		var buf bytes.Buffer
		if err := WriteBinaryEdges(&buf, sourceEdges(i, per)); err != nil {
			t.Fatal(err)
		}
		srcs[i] = NewBinarySource(&buf)
	}
	p, err := NewMultiPipeline(context.Background(), srcs, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	n, derr := p.Drain(sink)
	if derr != nil {
		t.Fatal(derr)
	}
	if n != nsrc*per || len(sink.got) != nsrc*per {
		t.Fatalf("drained %d edges, sink saw %d, want %d", n, len(sink.got), nsrc*per)
	}
	bySrc := make([][]graph.Edge, nsrc)
	for _, e := range sink.got {
		i := int(e.U) / 1_000_000
		bySrc[i] = append(bySrc[i], e)
	}
	for i := range bySrc {
		if !slices.Equal(bySrc[i], sourceEdges(i, per)) {
			t.Fatalf("source %d's edges did not reach the sink in order", i)
		}
	}
	st := p.Stats()
	if st.Edges != nsrc*per {
		t.Fatalf("stats = %+v", st)
	}
	assertNoLeak(t, base)
}
