package core

import (
	"bytes"
	"runtime"
	"testing"

	"streamtri/internal/gen"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

// TestShardedEdgesNeverDisagreeWithShardState is the regression test for
// the flush-ordering bug: an old implementation bumped m before the
// shards had processed the batch, so Edges() could run ahead of estimator
// state. The sharded count and every shard's own count must agree at
// every observation point, under arbitrary interleavings of Add and
// AddBatch.
func TestShardedEdgesNeverDisagreeWithShardState(t *testing.T) {
	edges := stream.Shuffle(gen.Syn3RegPaper(), randx.New(31))
	sc := NewShardedCounter(200, 3, 33)
	check := func(at string) {
		t.Helper()
		got := sc.Edges()
		for i, s := range sc.shards {
			if s.Edges() != got {
				t.Fatalf("%s: shard %d saw %d edges, sharded counter reports %d", at, i, s.Edges(), got)
			}
		}
	}
	i := 0
	for i < len(edges) {
		switch {
		case i%7 == 0 && i+64 <= len(edges):
			sc.AddBatch(edges[i : i+64])
			i += 64
		case i%3 == 0 && i+16 <= len(edges):
			sc.AddBatch(edges[i : i+16])
			i += 16
		default:
			sc.Add(edges[i])
			i++
		}
		if i%5 == 0 {
			check("mid-stream")
		}
	}
	check("at the end")
	if sc.Edges() != uint64(len(edges)) {
		t.Fatalf("Edges = %d, want %d", sc.Edges(), len(edges))
	}
}

// TestShardedPoolWorkersExitOnClose: a ShardedCounter runs its shards in
// the caller's goroutine, so constructing, feeding, checkpointing and
// restoring one must leave the goroutine count unchanged.
func TestShardedPoolWorkersExitOnClose(t *testing.T) {
	edges := stream.Shuffle(gen.Syn3RegPaper(), randx.New(43))
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		sc := NewShardedCounter(64, 4, uint64(50+i))
		sc.AddBatch(edges[:512])
		var buf bytes.Buffer
		if _, err := sc.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := ReadShardedCounterFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		restored.AddBatch(edges[512:1024])
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("counter %d: goroutines %d before, %d after", i, before, after)
		}
	}
}
