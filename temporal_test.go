package streamtri_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"streamtri"
	"streamtri/internal/gen"
	"streamtri/internal/randx"
)

// temporalStream builds a timestamped stream from a generated graph with
// strictly increasing timestamps (the shape of a sorted SNAP temporal
// export).
func temporalStream(seed uint64, n int) []streamtri.TimestampedEdge {
	edges := gen.HolmeKim(randx.New(seed), n, 3, 0.6)
	out := make([]streamtri.TimestampedEdge, len(edges))
	base := int64(1_700_000_000)
	for i, e := range edges {
		out[i] = streamtri.TimestampedEdge{E: e, TS: base + int64(i)}
	}
	return out
}

// shardTemporal deals a timestamped stream into k shards by seeded
// random assignment, preserving relative order within each shard.
func shardTemporal(stream []streamtri.TimestampedEdge, k int, seed uint64) [][]streamtri.TimestampedEdge {
	rng := randx.New(seed)
	shards := make([][]streamtri.TimestampedEdge, k)
	for _, e := range stream {
		i := int(rng.Uint64N(uint64(k)))
		shards[i] = append(shards[i], e)
	}
	return shards
}

// The determinism oracle of the ordered merge: the window estimate over
// k shuffled shards of one timestamped stream must equal the
// single-source CountStream estimate over the concatenated stream
// EXACTLY — same seed, same arrival order, bit-identical estimator
// state — for every k and every shard assignment. Run under -race in CI
// (the name matches the race target's CountStream pattern), where the
// scheduler is at its most adversarial.
func TestSlidingWindowCountStreamsMatchesSingleStreamOracle(t *testing.T) {
	temporal := temporalStream(7, 3000)
	plain := make([]streamtri.Edge, len(temporal))
	for i, e := range temporal {
		plain[i] = e.E
	}
	const r, w = 128, 2200

	ref := streamtri.NewSlidingWindowCounter(r, w, streamtri.WithSeed(9))
	if _, err := ref.CountStream(context.Background(), streamtri.NewSliceSource(plain)); err != nil {
		t.Fatal(err)
	}
	want := ref.EstimateTriangles()

	for _, k := range []int{2, 4} {
		for trial := uint64(0); trial < 2; trial++ {
			shards := shardTemporal(temporal, k, 1000*uint64(k)+trial)
			srcs := make([]streamtri.TimestampedSource, k)
			for i := range srcs {
				srcs[i] = streamtri.NewTimestampedSliceSource(shards[i])
			}
			sw := streamtri.NewSlidingWindowCounter(r, w, streamtri.WithSeed(9))
			st, err := sw.CountStreams(context.Background(), srcs...)
			if err != nil {
				t.Fatal(err)
			}
			if st.Edges != uint64(len(temporal)) {
				t.Fatalf("k=%d trial=%d: merged %d of %d edges", k, trial, st.Edges, len(temporal))
			}
			if got := sw.EstimateTriangles(); got != want {
				t.Fatalf("k=%d trial=%d: ordered-merge estimate %v != single-stream %v (determinism oracle)",
					k, trial, got, want)
			}
			if sw.WindowEdges() != ref.WindowEdges() || sw.StreamLength() != ref.StreamLength() {
				t.Fatalf("k=%d trial=%d: window state diverged", k, trial)
			}
			if len(st.PerSource) != k {
				t.Fatalf("k=%d: PerSource has %d entries", k, len(st.PerSource))
			}
			var sum uint64
			for _, s := range st.PerSource {
				sum += s.Edges
			}
			if sum != st.Edges {
				t.Fatalf("k=%d: per-source edges sum %d != aggregate %d", k, sum, st.Edges)
			}
		}
	}
}

// The ordered merge must hold the oracle through the real decoders too:
// temporal text and versioned timestamped binary shards of the same
// stream produce the same estimate as the in-memory single stream.
func TestSlidingWindowCountStreamsAcrossFormats(t *testing.T) {
	temporal := temporalStream(13, 2000)
	plain := make([]streamtri.Edge, len(temporal))
	for i, e := range temporal {
		plain[i] = e.E
	}
	const r, w = 256, 1500

	ref := streamtri.NewSlidingWindowCounter(r, w, streamtri.WithSeed(3))
	if _, err := ref.CountStream(context.Background(), streamtri.NewSliceSource(plain)); err != nil {
		t.Fatal(err)
	}
	want := ref.EstimateTriangles()

	shards := shardTemporal(temporal, 2, 77)
	var text bytes.Buffer
	if err := streamtri.WriteTimestampedEdgeList(&text, shards[0]); err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := streamtri.WriteTimestampedBinaryEdges(&bin, shards[1]); err != nil {
		t.Fatal(err)
	}
	sw := streamtri.NewSlidingWindowCounter(r, w, streamtri.WithSeed(3))
	st, err := sw.CountStreams(context.Background(),
		streamtri.NewTimestampedEdgeListSource(&text),
		streamtri.NewTimestampedBinaryEdgeSource(&bin))
	if err != nil {
		t.Fatal(err)
	}
	if st.Edges != uint64(len(temporal)) {
		t.Fatalf("merged %d of %d edges", st.Edges, len(temporal))
	}
	if got := sw.EstimateTriangles(); got != want {
		t.Fatalf("mixed-format ordered estimate %v != single-stream %v", got, want)
	}
}

// The block-structured v2 format is held to the same determinism oracle
// as v1: the window estimate over k v2-encoded shards must be
// bit-identical to the v1 ordered merge of the same shards — across
// shard counts, block sizes that force partial trailing blocks, and
// both timestamp layouts. The v2 run below merges the readers'
// zero-copy block views while the v1 run merges blocks filled by the
// adapter, and the estimator cannot tell them apart.
func TestSlidingWindowCountStreamsBlockBinaryMatchesV1(t *testing.T) {
	temporal := temporalStream(21, 2500)
	const r, w = 128, 1800

	for _, k := range []int{2, 5} {
		shards := shardTemporal(temporal, k, 31*uint64(k))

		v1srcs := make([]streamtri.TimestampedSource, k)
		for i := range v1srcs {
			var buf bytes.Buffer
			if err := streamtri.WriteTimestampedBinaryEdges(&buf, shards[i]); err != nil {
				t.Fatal(err)
			}
			v1srcs[i] = streamtri.NewTimestampedBinaryEdgeSource(&buf)
		}
		ref := streamtri.NewSlidingWindowCounter(r, w, streamtri.WithSeed(17))
		refSt, err := ref.CountStreams(context.Background(), v1srcs...)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.EstimateTriangles()

		for _, opts := range [][]streamtri.BlockOption{
			{streamtri.WithBlockRecords(64)},
			{streamtri.WithBlockRecords(97), streamtri.WithBlockDeltaTimestamps()},
		} {
			v2srcs := make([]streamtri.TimestampedSource, k)
			for i := range v2srcs {
				var buf bytes.Buffer
				if err := streamtri.WriteBlockBinaryEdges(&buf, shards[i], opts...); err != nil {
					t.Fatal(err)
				}
				v2srcs[i] = streamtri.NewBlockBinaryEdgeSource(&buf)
			}
			sw := streamtri.NewSlidingWindowCounter(r, w, streamtri.WithSeed(17))
			st, err := sw.CountStreams(context.Background(), v2srcs...)
			if err != nil {
				t.Fatal(err)
			}
			if st.Edges != refSt.Edges {
				t.Fatalf("k=%d: v2 merged %d edges, v1 merged %d", k, st.Edges, refSt.Edges)
			}
			if got := sw.EstimateTriangles(); got != want {
				t.Fatalf("k=%d: v2 ordered estimate %v != v1 %v (block-merge determinism oracle)",
					k, got, want)
			}
			if sw.WindowEdges() != ref.WindowEdges() || sw.StreamLength() != ref.StreamLength() {
				t.Fatalf("k=%d: v2 window state diverged from v1", k)
			}
		}
	}
}

// Cancelling a windowed multi-source run mid-stream must stop the
// decoders and the merger, leave the counter valid, and surface
// context.Canceled — the windowed mirror of the whole-stream
// cancellation contract.
func TestSlidingWindowCountStreamsCancel(t *testing.T) {
	// Big enough that the pipeline cannot finish before the cancel: the
	// merge output ring only holds a few batches.
	temporal := temporalStream(5, 20_000)
	shards := shardTemporal(temporal, 3, 8)
	srcs := make([]streamtri.TimestampedSource, len(shards))
	for i := range srcs {
		srcs[i] = streamtri.NewTimestampedSliceSource(shards[i])
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first batch is even delivered
	sw := streamtri.NewSlidingWindowCounter(64, 1000, streamtri.WithSeed(1), streamtri.WithBatchSize(128))
	st, err := sw.CountStreams(ctx, srcs...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The counter reflects exactly the edges the sink absorbed.
	if sw.StreamLength() != st.Edges {
		t.Fatalf("counter saw %d edges, stats report %d", sw.StreamLength(), st.Edges)
	}
}

// Zero sources is a no-op, matching the other CountStreams methods.
func TestSlidingWindowCountStreamsNoSources(t *testing.T) {
	sw := streamtri.NewSlidingWindowCounter(16, 100)
	st, err := sw.CountStreams(context.Background())
	if err != nil || st.Edges != 0 {
		t.Fatalf("CountStreams() = %+v, %v; want zero stats, nil error", st, err)
	}
}
