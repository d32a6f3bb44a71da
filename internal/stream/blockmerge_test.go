package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"streamtri/internal/graph"
)

// blockMergeInput is one generated multi-source scenario.
type blockMergeInput struct {
	name    string
	sources [][]TimestampedEdge
}

// blockMergeInputs generates the k-source scenarios the property grid
// sweeps: disjoint sorted ranges (whole-block gallops), round-robin
// interleaved (pure tournament), heavy ties, and unsorted-within-bound
// shards. Sizes are deliberately not multiples of the block size so
// every encoding ends in a partial trailing block.
func blockMergeInputs(rng *rand.Rand, k int) []blockMergeInput {
	mk := func(n int, ts func(src, i int) int64) [][]TimestampedEdge {
		srcs := make([][]TimestampedEdge, k)
		for s := range srcs {
			m := n + rng.Intn(7) // ragged lengths, partial tails
			srcs[s] = make([]TimestampedEdge, m)
			for i := range srcs[s] {
				u := uint32(rng.Intn(500))
				v := uint32(rng.Intn(500))
				if u == v {
					v++
				}
				srcs[s][i] = TimestampedEdge{E: graph.Edge{U: u, V: v}, TS: ts(s, i)}
			}
		}
		return srcs
	}
	inputs := []blockMergeInput{
		// Source s owns [s*10000, s*10000+n): every block of a lower
		// source beats every block of a higher one — maximal block
		// gallop, crossing source-exhaustion boundaries.
		{"disjoint sorted", mk(200, func(s, i int) int64 { return int64(s)*10000 + int64(i) })},
		// Strict round-robin: ts ≡ position, sources alternate every
		// edge — the gallop never engages, pure per-edge tournament.
		{"round robin", mk(150, func(s, i int) int64 { return int64(i)*int64(k) + int64(s) })},
		// Everything collides on a handful of timestamps: tie-breaking
		// by source index does all the work.
		{"heavy ties", mk(120, func(s, i int) int64 { return int64(rng.Intn(4)) })},
		// Sorted runs with occasional local disorder — unsorted within
		// the block bounds, which the merge must pass through
		// deterministically without reordering.
		{"locally disordered", mk(180, func(s, i int) int64 {
			return int64(i) + rng.Int63n(5) - 2
		})},
		// One empty source and one tiny source among full ones.
		{"ragged", func() [][]TimestampedEdge {
			srcs := mk(100, func(s, i int) int64 { return rng.Int63n(50) })
			srcs[0] = nil
			if k > 2 {
				srcs[1] = srcs[1][:1]
			}
			return srcs
		}()},
	}
	return inputs
}

// mergeKinds are the source sets the oracle grid runs: every source a
// v2 block stream, every source adapted from a slice, and a mixed set
// rotating through all four kinds the merge accepts.
var mergeKinds = []struct {
	name  string
	kinds []mergeSourceKind
}{
	{"all-v2", []mergeSourceKind{kindBlock}},
	{"all-slice", []mergeSourceKind{kindSlice}},
	{"mixed", []mergeSourceKind{kindBlock, kindSlice, kindText, kindV1}},
}

// TestBlockMergeMatchesRecordOracle is the merge's property grid: the
// pipeline emits exactly the record-by-record reference merge's
// sequence across k × input shape × v2 block size × delta compression,
// whether the sources are v2 views, adapted slices, or a mix of every
// source kind.
func TestBlockMergeMatchesRecordOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, k := range []int{1, 2, 3, 5, 8} {
		for _, input := range blockMergeInputs(rng, k) {
			want := referenceMerge(input.sources)
			for _, bs := range []int{1, 3, 16, 64} {
				for _, delta := range []bool{false, true} {
					opts := []BlockOption{WithBlockRecords(bs)}
					if delta {
						opts = append(opts, WithBlockDeltaTimestamps())
					}
					for _, set := range mergeKinds {
						got, _ := mergeShards(t, input.sources, set.kinds, 64, opts...)
						assertMergeEqual(t, got, want, fmt.Sprintf("k=%d %s %s bs=%d delta=%v",
							k, input.name, set.name, bs, delta))
					}
				}
			}
		}
	}
}

// TestBlockMergeSmallOutputBuffers drives the merge with w smaller than
// the block size, so every whole-block gallop crosses several
// output-buffer deliveries.
func TestBlockMergeSmallOutputBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for _, input := range blockMergeInputs(rng, 3) {
		want := referenceMerge(input.sources)
		for _, set := range mergeKinds {
			got, _ := mergeShards(t, input.sources, set.kinds, 7, WithBlockRecords(32))
			assertMergeEqual(t, got, want, input.name+" "+set.name)
		}
	}
}

// TestBlockMergeMixedSourcesFallsBack merges a v2 block stream with a
// slice source: the v2 source hands over its own views, the slice source
// falls back to the fill adapter, and the two still merge into exactly
// the reference sequence.
func TestBlockMergeMixedSourcesFallsBack(t *testing.T) {
	a := tsEdges(50, 0)
	b := tsEdges(50, 25)
	var buf bytes.Buffer
	if err := WriteBlockBinaryEdges(&buf, a, WithBlockRecords(8)); err != nil {
		t.Fatal(err)
	}
	srcs := []TimestampedSource{
		NewBlockBinarySource(bytes.NewReader(buf.Bytes())),
		NewTimestampedSliceSource(b),
	}
	if _, ok := asBlockSource(srcs[0], 16).(*filledBlockSource); ok {
		t.Fatal("a v2 source must hand over its own block views")
	}
	if _, ok := asBlockSource(srcs[1], 16).(*filledBlockSource); !ok {
		t.Fatal("a slice source must fall back to the fill adapter")
	}
	p, err := NewOrderedMultiPipeline(context.Background(), srcs, 16)
	if err != nil {
		t.Fatal(err)
	}
	assertMergeEqual(t, drainMerged(t, p), referenceMerge([][]TimestampedEdge{a, b}), "v2+slice")
}

// TestBlockMergeStats checks the Stats/SourceStats surface over v2
// sources: per-source edges sum to the aggregate after a full drain, and
// decode time is attributed per source.
func TestBlockMergeStats(t *testing.T) {
	k := 3
	var total uint64
	srcs := make([]TimestampedSource, k)
	for i := range srcs {
		edges := tsEdges(100+10*i, int64(i)*1000)
		total += uint64(len(edges))
		var buf bytes.Buffer
		if err := WriteBlockBinaryEdges(&buf, edges, WithBlockRecords(16)); err != nil {
			t.Fatal(err)
		}
		srcs[i] = NewBlockBinarySource(bytes.NewReader(buf.Bytes()))
	}
	p, err := NewOrderedMultiPipeline(context.Background(), srcs, 32)
	if err != nil {
		t.Fatal(err)
	}
	drainMerged(t, p)
	if got := p.Stats().Edges; got != total {
		t.Fatalf("aggregate edges %d, want %d", got, total)
	}
	var perSrc uint64
	for i, s := range p.SourceStats() {
		if s.Edges == 0 {
			t.Errorf("source %d reported zero edges", i)
		}
		perSrc += s.Edges
	}
	if perSrc != total {
		t.Fatalf("per-source edges sum %d, want %d", perSrc, total)
	}
}

// TestBlockMergeErrorBudget: a checksum-damaged block inside the budget
// is skipped (block-granular: one bad "record") and the merge completes
// over the surviving blocks; over budget, the run fails naming the
// source.
func TestBlockMergeErrorBudget(t *testing.T) {
	edges := tsEdges(60, 0)
	mkDamaged := func() []byte {
		var buf bytes.Buffer
		if err := WriteBlockBinaryEdges(&buf, edges, WithBlockRecords(20)); err != nil {
			t.Fatal(err)
		}
		d := buf.Bytes()
		block2 := 8 + blockHeaderSize + 20*16
		d[block2+blockHeaderSize+5] ^= 0xff
		return d
	}
	clean := tsEdges(60, 1_000_000)
	var cleanBuf bytes.Buffer
	if err := WriteBlockBinaryEdges(&cleanBuf, clean, WithBlockRecords(20)); err != nil {
		t.Fatal(err)
	}

	// Within budget: the merge completes minus the damaged block.
	p, err := NewOrderedMultiPipeline(context.Background(), []TimestampedSource{
		NewBlockBinarySource(bytes.NewReader(mkDamaged())),
		NewBlockBinarySource(bytes.NewReader(cleanBuf.Bytes())),
	}, 32, WithMaxBadRecords(1))
	if err != nil {
		t.Fatal(err)
	}
	got := drainMerged(t, p)
	want := len(edges) - 20 + len(clean)
	if len(got) != want {
		t.Fatalf("merged %d edges, want %d (one 20-record block skipped)", len(got), want)
	}
	if bad := p.Stats().BadRecords; bad != 1 {
		t.Fatalf("BadRecords = %d, want 1 (budget is block-granular)", bad)
	}

	// No budget: fail fast, naming the source.
	p, err = NewOrderedMultiPipeline(context.Background(), []TimestampedSource{
		NewBlockBinarySource(bytes.NewReader(mkDamaged())),
		NewBlockBinarySource(bytes.NewReader(cleanBuf.Bytes())),
	}, 32)
	if err != nil {
		t.Fatal(err)
	}
	for {
		b, err := p.Next()
		if err != nil {
			if !strings.Contains(err.Error(), "source 0") || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("error %v, want source-0 checksum mismatch", err)
			}
			break
		}
		if b == nil {
			t.Fatal("nil batch without error")
		}
		p.Recycle(b)
	}
	if err := p.Close(); err == nil {
		t.Fatal("Close after terminal error returned nil")
	}
}

// TestBlockMergeCloseMidStream exercises shutdown with views in flight.
func TestBlockMergeCloseMidStream(t *testing.T) {
	srcs := make([]TimestampedSource, 4)
	for i := range srcs {
		var buf bytes.Buffer
		if err := WriteBlockBinaryEdges(&buf, tsEdges(5000, int64(i)), WithBlockRecords(64)); err != nil {
			t.Fatal(err)
		}
		srcs[i] = NewBlockBinarySource(bytes.NewReader(buf.Bytes()))
	}
	p, err := NewOrderedMultiPipeline(context.Background(), srcs, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Next()
	if err != nil {
		t.Fatal(err)
	}
	p.Recycle(b)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestBlockMergeContextCancel verifies ctx cancellation surfaces from
// Next.
func TestBlockMergeContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var buf bytes.Buffer
	if err := WriteBlockBinaryEdges(&buf, tsEdges(100000, 0), WithBlockRecords(128)); err != nil {
		t.Fatal(err)
	}
	p, err := NewOrderedMultiPipeline(ctx, []TimestampedSource{
		NewBlockBinarySource(bytes.NewReader(buf.Bytes())),
		NewBlockBinarySource(bytes.NewReader(buf.Bytes())),
	}, 16)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for {
		b, err := p.Next()
		if err != nil {
			if err != io.EOF && !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v, want context.Canceled or EOF", err)
			}
			break
		}
		p.Recycle(b)
	}
	p.Close()
}

// gallopKinds are the source sets the tournament tests run over: the
// adapter's exact computed bounds and the v2 header bounds must both
// gallop the same way.
var gallopKinds = [][]mergeSourceKind{{kindSlice}, {kindBlock}}

// Equal timestamps everywhere: the merge must emit source 0 in full,
// then source 1, then source 2 — and because each whole source is one
// run under the tie-break, the tournament is decided only at source
// boundaries.
func TestLoserTreeTieBreakBySourceIndex(t *testing.T) {
	const per = 100
	shards := make([][]TimestampedEdge, 3)
	var want []TimestampedEdge
	for s := range shards {
		shards[s] = tsShard(s, per, func(int) int64 { return 42 })
		want = append(want, shards[s]...)
	}
	for _, kinds := range gallopKinds {
		got, replays := mergeShards(t, shards, kinds, 16, WithBlockRecords(16))
		assertMergeEqual(t, got, want, "tie-break "+kinds[0].String())
		if max := (gallopAfter + 2) * len(shards); replays > max {
			t.Fatalf("%v: replays = %d, want ≤ %d (each source is one gallop run under the tie-break)", kinds[0], replays, max)
		}
	}
}

// k = 1 degenerates to passthrough: once the hysteresis trips, the
// limit is the +∞ sentinel (no live challenger), every block gallops
// through whole, and the tree is never touched again until exhaustion.
func TestLoserTreeSingleSourcePassthrough(t *testing.T) {
	shard := tsShard(0, 500, func(i int) int64 { return int64(i % 7) }) // not even sorted
	for _, kinds := range gallopKinds {
		got, replays := mergeShards(t, [][]TimestampedEdge{shard}, kinds, 64, WithBlockRecords(64))
		assertMergeEqual(t, got, shard, "passthrough "+kinds[0].String())
		if replays > gallopAfter+1 {
			t.Fatalf("%v: replays = %d, want ≤ %d (k=1 must not touch the tree per edge)", kinds[0], replays, gallopAfter+1)
		}
	}
}

// Runny input — each source one long monotone run — must enter the
// gallop and stay in it across block boundaries: decisions stay at the
// number of run switches, orders of magnitude below the edge count.
// Alternating input — consecutive timestamps dealt round-robin — must
// exit the gallop after every edge: one decision per edge, and the
// output still exactly interleaved (the gallop never overshoots). k = 2
// is a one-match tree, k = 3 a deeper one.
func TestLoserTreeGallopEntersAndExitsOnRunnyVsAlternating(t *testing.T) {
	const per = 1000
	for _, k := range []int{2, 3} {
		runny := make([][]TimestampedEdge, k)
		alternating := make([][]TimestampedEdge, k)
		for s := range runny {
			runny[s] = tsShard(s, per, func(i int) int64 { return int64(s*per + i) })
			alternating[s] = tsShard(s, per, func(i int) int64 { return int64(k*i + s) })
		}
		for _, kinds := range gallopKinds {
			got, replays := mergeShards(t, runny, kinds, 128, WithBlockRecords(128))
			assertMergeEqual(t, got, referenceMerge(runny), fmt.Sprintf("runny k=%d %v", k, kinds[0]))
			if max := (gallopAfter + 2) * k; replays > max {
				t.Fatalf("runny k=%d %v: replays = %d for %d edges, want ≤ %d (gallop must hold through each run)",
					k, kinds[0], replays, k*per, max)
			}

			got, replays = mergeShards(t, alternating, kinds, 128, WithBlockRecords(128))
			assertMergeEqual(t, got, referenceMerge(alternating), fmt.Sprintf("alternating k=%d %v", k, kinds[0]))
			if replays < k*per-k {
				t.Fatalf("alternating k=%d %v: replays = %d for %d edges, want ~one per edge (gallop must exit after each)",
					k, kinds[0], replays, k*per)
			}
		}
	}
}

// Sources that stop mid-tournament (including ones empty from the
// start) must leave the tree cleanly and never stall the rest.
func TestLoserTreeEmptyAndUnevenSources(t *testing.T) {
	shards := [][]TimestampedEdge{
		tsShard(0, 50, func(i int) int64 { return int64(3 * i) }),
		nil,
		tsShard(2, 7, func(i int) int64 { return int64(i) }),
	}
	for _, set := range mergeKinds {
		got, _ := mergeShards(t, shards, set.kinds, 4, WithBlockRecords(4))
		assertMergeEqual(t, got, referenceMerge(shards), "uneven "+set.name)
	}
}

// Randomized oracle sweep: arbitrary (tie-heavy, unsorted) timestamps,
// every k and batch size, over a mixed source set, must match the
// linear-scan reference merge bit for bit — the tree plus gallop must
// be observationally identical to a per-edge tournament on inputs with
// no run structure at all.
func TestLoserTreeMatchesReferenceMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{2, 3, 5, 8} {
		for _, batch := range []int{1, 3, 64} {
			shards := make([][]TimestampedEdge, k)
			for s := range shards {
				n := rng.Intn(200) // occasionally tiny or empty
				shards[s] = tsShard(s, n, func(int) int64 { return int64(rng.Intn(40)) })
			}
			got, _ := mergeShards(t, shards, mergeKinds[2].kinds, batch, WithBlockRecords(batch))
			assertMergeEqual(t, got, referenceMerge(shards), fmt.Sprintf("random k=%d batch=%d", k, batch))
		}
	}
}

// The production pipeline over gallop-friendly shapes (one long run per
// source, where the fast path does the most work) must stay
// deterministic and correct run to run; the name keeps it in the -race
// CI subset.
func TestOrderedMultiPipelineGallopShapesDeterministic(t *testing.T) {
	runOnce := func() []graph.Edge {
		shards := [][]TimestampedEdge{
			tsShard(0, 4000, func(i int) int64 { return int64(i) }),
			tsShard(1, 4000, func(i int) int64 { return int64(4000 + i) }),
			tsShard(2, 100, func(i int) int64 { return int64(50*i + 3) }),
		}
		srcs := make([]TimestampedSource, len(shards))
		for i := range srcs {
			srcs[i] = NewTimestampedSliceSource(shards[i])
		}
		p, err := NewOrderedMultiPipeline(nil, srcs, 128)
		if err != nil {
			t.Fatal(err)
		}
		var got []graph.Edge
		if rerr := p.Run(func(b []graph.Edge) error { got = append(got, b...); return nil }); rerr != nil {
			t.Fatal(rerr)
		}
		return got
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) || len(a) != 8100 {
		t.Fatalf("runs merged %d vs %d edges, want 8100", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs across runs: %v vs %v", i, a[i], b[i])
		}
	}
}
