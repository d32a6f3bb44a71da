package stream

import (
	"bytes"
	"context"
	"errors"
	"io"
	"slices"
	"strings"
	"sync/atomic"
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

// blockInterleave is the merge NewMergedPipeline promises: block j of
// every part, in part order, before any block j+1, in blocks of b edges.
func blockInterleave(parts [][]graph.Edge, b int) []graph.Edge {
	var out []graph.Edge
	for lo, more := 0, true; more; lo += b {
		more = false
		for _, p := range parts {
			if lo < len(p) {
				out = append(out, p[lo:min(lo+b, len(p))]...)
				more = true
			}
		}
	}
	return out
}

// plainSource serves edges through one of four plain-source shapes: a
// slice, the plain binary reader, the text reader, or the v2 block
// reader (blocks of 1000 records) behind StripTimestamps.
func plainSource(t *testing.T, kind int, edges []graph.Edge) Source {
	t.Helper()
	var buf bytes.Buffer
	switch kind % 4 {
	case 0:
		return NewSliceSource(edges)
	case 1:
		if err := WriteBinaryEdges(&buf, edges); err != nil {
			t.Fatal(err)
		}
		return NewBinarySource(&buf)
	case 2:
		if err := WriteEdgeList(&buf, edges); err != nil {
			t.Fatal(err)
		}
		return NewTextSource(&buf)
	default:
		ts := make([]TimestampedEdge, len(edges))
		for i, e := range edges {
			ts[i] = TimestampedEdge{E: e, TS: int64(i)}
		}
		return StripTimestamps(NewBlockBinarySource(bytes.NewReader(encodeBlockStream(t, ts, WithBlockRecords(1000)))))
	}
}

// The plain-source merge is deterministic: its output is the round-robin
// interleave of each source's blocks of min(w, DefaultBlockRecords)
// edges, whatever the source kinds, their lengths (an empty source
// included), or the scheduler.
func TestMergedPipelineMatchesBlockInterleave(t *testing.T) {
	base := goroutineBaseline()
	lengths := []int{9000, 4097, 0, 123, 8192, 1, 6000, 5000}
	for _, k := range []int{1, 2, 3, 8} {
		parts := make([][]graph.Edge, k)
		for i := range parts {
			parts[i] = sourceEdges(i, lengths[i])
		}
		for _, w := range []int{1, 7, 4096, 10000} {
			srcs := make([]Source, k)
			for i := range srcs {
				srcs[i] = plainSource(t, i+k, parts[i])
			}
			p, err := NewMergedPipeline(t.Context(), srcs, w)
			if err != nil {
				t.Fatal(err)
			}
			var got []graph.Edge
			if err := p.Run(func(b []graph.Edge) error { got = append(got, b...); return nil }); err != nil {
				t.Fatalf("k=%d w=%d: %v", k, w, err)
			}
			want := blockInterleave(parts, min(w, DefaultBlockRecords))
			if !slices.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Fatalf("k=%d w=%d: merged %d edges, want %d; first difference at edge %d", k, w, len(got), len(want), i)
			}
		}
	}
	assertNoLeak(t, base)
}

func TestMultiPipelineMergesAllSourcesPreservingPerSourceOrder(t *testing.T) {
	base := goroutineBaseline()
	const nsrc, per = 3, 157
	srcs := make([]Source, nsrc)
	for i := range srcs {
		srcs[i] = NewSliceSource(sourceEdges(i, per))
	}
	p, err := NewMergedPipeline(context.Background(), srcs, 16)
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
	p, err := NewMergedPipeline(context.Background(), []Source{NewSliceSource(in)}, 7)
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

// Drain over several binary shards: the merge feeds the sink the union
// of the shards, each shard's edges in order.
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
	p, err := NewMergedPipeline(context.Background(), srcs, 256)
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

// The shutdown tests below drive plain sources, so they cover the
// keyed fill path that the ordered merge's tests, over timestamped
// sources, do not reach.

func TestMultiPipelineBadArgs(t *testing.T) {
	if _, err := NewMergedPipeline(context.Background(), []Source{NewSliceSource(nil)}, 0); err == nil {
		t.Fatal("want error for w=0")
	}
	if _, err := NewMergedPipeline(context.Background(), nil, 8); err == nil {
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
	p, err := NewMergedPipeline(context.Background(), srcs, 10)
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
// spin forever.
func TestMultiPipelineErrorStopsSiblingDecoders(t *testing.T) {
	base := goroutineBaseline()
	srcs := []Source{
		&infiniteSource{},
		&errorSource{n: 5},
	}
	p, err := NewMergedPipeline(context.Background(), srcs, 8)
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

// Context cancellation must free decoders that are all parked on full
// hand-off channels (nobody consuming, every block filled and queued).
func TestMultiPipelineCancelWithDecodersParked(t *testing.T) {
	base := goroutineBaseline()
	ctx, cancel := context.WithCancel(context.Background())
	srcs := []Source{&infiniteSource{}, &infiniteSource{i: 1 << 20}, &infiniteSource{i: 1 << 21}}
	p, err := NewMergedPipeline(ctx, srcs, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Let every decoder and the merger wedge with the consumer absent.
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
	p, err := NewMergedPipeline(context.Background(), srcs, 16)
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

// With nobody consuming, the decoders and the merger wedge with a
// bounded number of blocks decoded: each source holds at most three
// (one its decoder filled, one handed to the merger, one the merger
// reads), and every other block it decoded was emitted and released.
// The count of decoded blocks must then stop at no more than 3k plus
// the blocks the merger has emitted.
func TestMergedPipelineHoldsThreeBlocksPerSource(t *testing.T) {
	const w = 16
	records := uint64(min(w, DefaultBlockRecords))
	for _, k := range []int{2, 8, 64} {
		base := goroutineBaseline()
		p, n := wedgedMerge(t, k, w)
		emitted := p.Stats().Edges / records
		t.Logf("k=%d: %d blocks decoded, %d emitted", k, n, emitted)
		if n > 3*uint64(k)+emitted {
			t.Fatalf("k=%d: %d blocks decoded, want at most 3k + %d emitted = %d", k, n, emitted, 3*uint64(k)+emitted)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("k=%d: Close = %v", k, err)
		}
		assertNoLeak(t, base)
	}
}

// wedgedMerge starts a merge of k infinite sources with nobody
// consuming and returns it once its count of decoded blocks has held
// still for 200 ms, with that count. Stopping early only reads a
// smaller count, so a slow machine cannot fail a bound on it, only test
// it less.
func wedgedMerge(t *testing.T, k, w int) (*OrderedMultiPipeline, uint64) {
	t.Helper()
	srcs := make([]Source, k)
	for i := range srcs {
		srcs[i] = &infiniteSource{i: uint32(i) << 20}
	}
	p, err := NewMergedPipeline(context.Background(), srcs, w)
	if err != nil {
		t.Fatal(err)
	}
	decoded := func() (n uint64) {
		for _, s := range p.SourceStats() {
			n += s.Batches
		}
		return n
	}
	n, still := decoded(), time.Now()
	for deadline := time.Now().Add(10 * time.Second); time.Since(still) < 200*time.Millisecond; {
		if time.Now().After(deadline) {
			p.Close()
			t.Fatalf("k=%d: decoded blocks still growing after 10 s (%d)", k, n)
		}
		time.Sleep(5 * time.Millisecond)
		if m := decoded(); m != n {
			n, still = m, time.Now()
		}
	}
	return p, n
}

// A merge closed before its sources end hands every block buffer it
// holds back to BlockBufs: the view each decoder was sending, the one
// waiting in each source's channel and the one each merger cursor
// reads. So a second merge of the same shape, closed the same way,
// finds every buffer it needs idle and allocates none.
func TestMergedPipelineEarlyCloseReturnsBlockBuffers(t *testing.T) {
	// Take the idle buffers earlier tests left off the list for the
	// test's length: the first merge then draws only new ones, and what
	// the second allocates does not depend on what those tests left.
	held := make([][]byte, BlockBufs.Idle())
	for i := range held {
		held[i] = BlockBufs.Get(0)
	}
	newBuf := BlockBufs.New
	var made atomic.Int64
	BlockBufs.New = func(n int) []byte {
		made.Add(1)
		return newBuf(n)
	}
	defer func() {
		BlockBufs.New = newBuf
		for _, b := range held {
			BlockBufs.Put(b)
		}
	}()
	const w = 16
	for _, k := range []int{2, 8, 64} {
		base := goroutineBaseline()
		for run := 1; run <= 2; run++ {
			made.Store(0)
			p, n := wedgedMerge(t, k, w)
			if err := p.Close(); err != nil {
				t.Fatalf("k=%d: Close = %v", k, err)
			}
			t.Logf("k=%d, run %d: %d blocks decoded, %d new block buffers", k, run, n, made.Load())
			if run == 2 && made.Load() > 0 {
				t.Errorf("k=%d: the second early-closed merge allocated %d block buffers, want 0", k, made.Load())
			}
		}
		assertNoLeak(t, base)
	}
}
