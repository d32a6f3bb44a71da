package stream

import (
	"bytes"
	"context"
	"io"
	"testing"

	"streamtri/internal/graph"
)

// Shared fixtures for the ordered-merge tests and fuzz target: the
// naive reference merge every merged stream is held to, shard builders,
// and encoders that put one shard in front of the merge as any of the
// source kinds it accepts.

// referenceMerge is the oracle: repeatedly pick the smallest
// (timestamp, source index) head by linear scan. It makes no
// sortedness assumption, exactly like the tournament.
func referenceMerge(shards [][]TimestampedEdge) []TimestampedEdge {
	idx := make([]int, len(shards))
	var out []TimestampedEdge
	for {
		best := -1
		for s := range shards {
			if idx[s] == len(shards[s]) {
				continue
			}
			if best < 0 || shards[s][idx[s]].TS < shards[best][idx[best]].TS {
				best = s
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, shards[best][idx[best]])
		idx[best]++
	}
}

// tsShard builds n edges for source src, stamped by ts. Every edge is
// unique across sources, so an edge-only comparison of merged output
// still pins down which record went where.
func tsShard(src, n int, ts func(i int) int64) []TimestampedEdge {
	out := make([]TimestampedEdge, n)
	for i := range out {
		u := graph.NodeID(src*1_000_000 + i)
		out[i] = TimestampedEdge{E: graph.Edge{U: u, V: u + 500_000}, TS: ts(i)}
	}
	return out
}

// assertMergeEqual compares a merged edge stream against the reference
// merge's records.
func assertMergeEqual(t testing.TB, got []graph.Edge, want []TimestampedEdge, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: merged %d edges, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i].E {
			t.Fatalf("%s: edge %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// drainMerged drains an OrderedMultiPipeline into one flat edge slice.
func drainMerged(t testing.TB, p *OrderedMultiPipeline) []graph.Edge {
	t.Helper()
	var out []graph.Edge
	for {
		b, err := p.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
		p.Recycle(b)
	}
}

// mergeSourceKind is how a test shard reaches the merge: as a v2 block
// stream (the zero-copy views) or as one of the adapted sources.
type mergeSourceKind int

const (
	kindBlock mergeSourceKind = iota
	kindSlice
	kindText
	kindV1
)

func (k mergeSourceKind) String() string {
	return [...]string{"v2", "slice", "text", "v1"}[k]
}

// mergeSource encodes edges as kind (blockOpts configure the v2 writer)
// and returns a source reading them back. Shards must hold no self
// loops: the decoders drop them, the slice source does not.
func mergeSource(t testing.TB, kind mergeSourceKind, edges []TimestampedEdge, blockOpts ...BlockOption) TimestampedSource {
	t.Helper()
	var buf bytes.Buffer
	var err error
	switch kind {
	case kindSlice:
		return NewTimestampedSliceSource(append([]TimestampedEdge(nil), edges...))
	case kindBlock:
		err = WriteBlockBinaryEdges(&buf, edges, blockOpts...)
	case kindText:
		err = WriteTimestampedEdgeList(&buf, edges)
	case kindV1:
		err = WriteTimestampedBinaryEdges(&buf, edges)
	}
	if err != nil {
		t.Fatal(err)
	}
	switch kind {
	case kindBlock:
		return NewBlockBinarySource(&buf)
	case kindText:
		return NewTimestampedTextSource(&buf)
	default:
		return NewTimestampedBinarySource(&buf)
	}
}

// mergeShards merges shards, source i encoded as kinds[i % len(kinds)],
// through NewOrderedMultiPipeline with output batches of w edges. It
// returns the merged stream and the merger's tournament decision count.
func mergeShards(t testing.TB, shards [][]TimestampedEdge, kinds []mergeSourceKind, w int, blockOpts ...BlockOption) ([]graph.Edge, int) {
	t.Helper()
	srcs := make([]TimestampedSource, len(shards))
	for i, edges := range shards {
		srcs[i] = mergeSource(t, kinds[i%len(kinds)], edges, blockOpts...)
	}
	p, err := NewOrderedMultiPipeline(context.Background(), srcs, w)
	if err != nil {
		t.Fatal(err)
	}
	got := drainMerged(t, p)
	// out is closed only after the merger exits, so its count is final.
	return got, p.replays
}
