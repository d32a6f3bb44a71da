package core

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"streamtri/internal/gen"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

// TestSnapshotReadersDuringCounterIngest hammers the snapshot read path
// from 4 goroutines while the owner goroutine drives AddBatch — the
// serving workload. Run under -race this proves readers never touch
// live estimator state; the assertions prove each snapshot is internally
// consistent and the observed edge counts never go backwards.
func TestSnapshotReadersDuringCounterIngest(t *testing.T) {
	const r, w, batches, readers = 256, 1024, 64, 4
	rng := randx.New(101)
	edges := stream.Shuffle(gen.HolmeKim(rng, w*batches/4, 2, 0.5), rng)
	for len(edges) < w*batches {
		edges = append(edges, edges[:min(w, w*batches-len(edges))]...)
	}
	c := NewCounter(r, 7)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var lastEdges uint64
			for !stop.Load() {
				s := c.Snapshot()
				if s.Edges() < lastEdges {
					t.Errorf("reader %d: snapshot edges went backwards: %d -> %d", g, lastEdges, s.Edges())
					return
				}
				lastEdges = s.Edges()
				// The direct methods must come from a published snapshot
				// too — they may trail the Snapshot() call above, but
				// each is finite arithmetic on immutable state.
				_ = c.EstimateTriangles()
				_ = c.EstimateWedges()
				_ = c.EstimateTransitivity()
				if z := s.Wedges(); z != 0 && s.Transitivity() != 3*s.Triangles()/z {
					t.Errorf("reader %d: snapshot internally inconsistent", g)
					return
				}
			}
		}(g)
	}
	for i := 0; i < batches; i++ {
		c.AddBatch(edges[i*w : (i+1)*w])
	}
	stop.Store(true)
	wg.Wait()
	if got := c.Snapshot().Edges(); got != uint64(w*batches) {
		t.Fatalf("final snapshot edges = %d, want %d", got, w*batches)
	}
}

// TestSnapshotReadersDuringShardedIngest is the same for a counter
// restored from a four-shard checkpoint: its AddBatch calls while 4
// goroutines read estimates.
func TestSnapshotReadersDuringShardedIngest(t *testing.T) {
	const r, p, w, batches, readers = 256, 4, 1024, 64, 4
	rng := randx.New(103)
	edges := stream.Shuffle(gen.HolmeKim(rng, w*batches/4, 2, 0.5), rng)
	for len(edges) < w*batches {
		edges = append(edges, edges[:min(w, w*batches-len(edges))]...)
	}
	sc := newShardSet(r, p, 11).convert(t)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var lastEdges uint64
			for !stop.Load() {
				s := sc.Snapshot()
				if s.Edges() < lastEdges {
					t.Errorf("reader %d: snapshot edges went backwards: %d -> %d", g, lastEdges, s.Edges())
					return
				}
				lastEdges = s.Edges()
				_ = sc.EstimateTriangles()
				_ = sc.EstimateWedges()
				_ = sc.EstimateTransitivity()
			}
		}(g)
	}
	for i := 0; i < batches; i++ {
		sc.AddBatch(edges[i*w : (i+1)*w])
	}
	stop.Store(true)
	wg.Wait()
	if got := sc.Snapshot().Edges(); got != uint64(w*batches) {
		t.Fatalf("final snapshot edges = %d, want %d", got, w*batches)
	}
}

// TestSnapshotBitIdenticalToDirectAggregation holds the snapshot to the
// historical contract: at every batch boundary its values must equal the
// direct per-estimator aggregation computed the way the pre-snapshot
// Estimate* methods did, bit for bit.
func TestSnapshotBitIdenticalToDirectAggregation(t *testing.T) {
	rng := randx.New(29)
	edges := stream.Shuffle(gen.HolmeKim(rng, 3000, 3, 0.6), rng)
	c := NewCounter(300, 5)
	for lo := 0; lo < len(edges); lo += 512 {
		c.AddBatch(edges[lo:min(lo+512, len(edges))])
		var tri, wed float64
		for i := range c.ests {
			tri += c.ests[i].TriangleEstimate(c.m)
			wed += c.ests[i].WedgeEstimate(c.m)
		}
		r := float64(len(c.ests))
		if got := c.EstimateTriangles(); got != tri/r {
			t.Fatalf("triangles: snapshot %v != direct %v at m=%d", got, tri/r, c.m)
		}
		if got := c.EstimateWedges(); got != wed/r {
			t.Fatalf("wedges: snapshot %v != direct %v at m=%d", got, wed/r, c.m)
		}
	}
}

// TestShardedSnapshotBitIdenticalToDirectAggregation checks a counter
// restored from a three-shard checkpoint the same way, from the restore
// on: its snapshot must reproduce the direct mean over all the shards'
// estimators exactly.
func TestShardedSnapshotBitIdenticalToDirectAggregation(t *testing.T) {
	rng := randx.New(31)
	edges := stream.Shuffle(gen.HolmeKim(rng, 3000, 3, 0.6), rng)
	sc := newShardSet(300, 3, 5).convert(t)
	for lo := 0; lo < len(edges); lo += 512 {
		sc.AddBatch(edges[lo:min(lo+512, len(edges))])
		var tri, wed float64
		for i := range sc.ests {
			tri += sc.ests[i].TriangleEstimate(sc.m)
			wed += sc.ests[i].WedgeEstimate(sc.m)
		}
		r := float64(sc.NumEstimators())
		if got := sc.EstimateTriangles(); got != tri/r {
			t.Fatalf("triangles: snapshot %v != direct %v at m=%d", got, tri/r, sc.m)
		}
		if got := sc.EstimateWedges(); got != wed/r {
			t.Fatalf("wedges: snapshot %v != direct %v at m=%d", got, wed/r, sc.m)
		}
	}
}

// TestSnapshotExcludesInFlightBatch pins the consistency model: while
// the owner runs AddBatch calls, a concurrent reader only ever sees a
// batch boundary — an edge count the owner reached, paired with the
// estimates the owner saw there, never a batch some estimators have
// absorbed and others have not.
func TestSnapshotExcludesInFlightBatch(t *testing.T) {
	const w, batches = 100, 40
	rng := randx.New(37)
	edges := stream.Shuffle(gen.HolmeKim(rng, 2000, 3, 0.6), rng)[:w*batches]
	sc := NewCounter(64, 9)

	var stop atomic.Bool
	var seen []*EstimateSnapshot
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last *EstimateSnapshot
		for !stop.Load() {
			if s := sc.Snapshot(); s != last {
				seen = append(seen, s)
				last = s
			}
		}
	}()
	want := map[uint64][2]float64{0: {sc.EstimateTriangles(), sc.EstimateWedges()}}
	for i := 0; i < batches; i++ {
		sc.AddBatch(edges[i*w : (i+1)*w])
		want[sc.Edges()] = [2]float64{sc.EstimateTriangles(), sc.EstimateWedges()}
	}
	stop.Store(true)
	<-done
	for _, s := range seen {
		got, ok := want[s.Edges()]
		if !ok {
			t.Fatalf("reader saw %d edges, not a batch boundary", s.Edges())
		}
		if got != [2]float64{s.Triangles(), s.Wedges()} {
			t.Fatalf("at %d edges the reader saw (%v, %v), the owner (%v, %v)",
				s.Edges(), s.Triangles(), s.Wedges(), got[0], got[1])
		}
	}
	if got := sc.Snapshot().Edges(); got != w*batches {
		t.Fatalf("final snapshot edges = %d, want %d", got, w*batches)
	}
}

// TestSnapshotSurvivesSerializeRoundTrip: restore must republish, so a
// restored counter answers estimate queries (bit-identically) before any
// new edge arrives — the recovery path of a serving process.
func TestSnapshotSurvivesSerializeRoundTrip(t *testing.T) {
	rng := randx.New(41)
	edges := stream.Shuffle(gen.HolmeKim(rng, 2000, 3, 0.6), rng)

	c := NewCounter(128, 13)
	c.AddBatch(edges)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rc, err := ReadCounterFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rc.EstimateTriangles() != c.EstimateTriangles() || rc.EstimateWedges() != c.EstimateWedges() {
		t.Fatal("restored Counter estimates differ from checkpointed ones")
	}

	// A three-shard checkpoint restores as one counter whose estimates
	// are the mean over all the shards' estimators.
	sc := newShardSet(128, 3, 13)
	sc.AddBatch(edges)
	rsc := sc.convert(t)
	var tri, wed float64
	for _, sh := range sc {
		for i := range sh.ests {
			tri += sh.ests[i].TriangleEstimate(sh.m)
			wed += sh.ests[i].WedgeEstimate(sh.m)
		}
	}
	if rsc.EstimateTriangles() != tri/128 || rsc.EstimateWedges() != wed/128 {
		t.Fatal("restored shards' estimates differ from the checkpointed estimators' mean")
	}
	if rsc.Edges() != sc[0].Edges() {
		t.Fatalf("restored edge count %d != %d", rsc.Edges(), sc[0].Edges())
	}
}

// TestShardedSerializeRoundTripContinues: a counter restored from a
// three-shard checkpoint is a full counter — checkpointed and restored
// again halfway through the rest of the stream, it must then track its
// never-checkpointed twin bit for bit.
func TestShardedSerializeRoundTripContinues(t *testing.T) {
	rng := randx.New(43)
	edges := stream.Shuffle(gen.HolmeKim(rng, 3000, 3, 0.6), rng)
	third := len(edges) / 3
	half := len(edges) / 2

	shards := newShardSet(96, 3, 17)
	shards.AddBatch(edges[:third])
	twin, sc := shards.convert(t), shards.convert(t)
	for lo := third; lo < half; lo += 300 {
		b := edges[lo:min(lo+300, half)]
		twin.AddBatch(b)
		sc.AddBatch(b)
	}
	var buf bytes.Buffer
	if _, err := sc.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadCounterFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for lo := half; lo < len(edges); lo += 300 {
		b := edges[lo:min(lo+300, len(edges))]
		twin.AddBatch(b)
		restored.AddBatch(b)
	}
	if restored.EstimateTriangles() != twin.EstimateTriangles() {
		t.Fatalf("restored counter diverged: %v != %v",
			restored.EstimateTriangles(), twin.EstimateTriangles())
	}
	if restored.Edges() != twin.Edges() {
		t.Fatalf("restored edge count %d != %d", restored.Edges(), twin.Edges())
	}
}

// TestReadShardedCounterFromErrors: ReadCounterFrom rejects an NSTS
// envelope with wrong magic, an unknown version, a truncated shard, or
// shards whose edge counts disagree with the envelope's, and restores a
// good one.
func TestReadShardedCounterFromErrors(t *testing.T) {
	sc := newShardSet(16, 2, 3)
	sc.Add(graph.Edge{U: 1, V: 2})
	good := encodeState(t, sc)
	if _, err := ReadCounterFrom(bytes.NewReader(good)); err != nil {
		t.Fatalf("good envelope: %v", err)
	}

	if _, err := ReadCounterFrom(bytes.NewReader(nil)); err == nil {
		t.Error("empty input: want error")
	}
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if _, err := ReadCounterFrom(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic: want error")
	}
	bad = append([]byte{}, good...)
	bad[4] = 9
	if _, err := ReadCounterFrom(bytes.NewReader(bad)); err == nil {
		t.Error("unknown version: want error")
	}
	trunc := good[:len(good)-5]
	if _, err := ReadCounterFrom(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated input: want error")
	}
	// The envelope claims one more edge than its shards hold.
	bad = append([]byte{}, good...)
	bad[12]++
	if _, err := ReadCounterFrom(bytes.NewReader(bad)); err == nil {
		t.Error("shard edge counts disagreeing with the envelope: want error")
	}
}
