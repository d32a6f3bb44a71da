package streamtri_test

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"streamtri"
)

// TestSnapshotMatchesEstimatesAtBoundary: after a flush, the lock-free
// snapshot and the flushing Estimate* methods must agree bit for bit on
// both counter flavors.
func TestSnapshotMatchesEstimatesAtBoundary(t *testing.T) {
	edges := syn3regStream(61)

	tc := streamtri.NewTriangleCounter(2000, streamtri.WithSeed(62))
	tc.AddBatch(edges)
	s := tc.Snapshot()
	if s.Edges != tc.Edges() {
		t.Fatalf("snapshot edges %d != %d", s.Edges, tc.Edges())
	}
	if s.Triangles != tc.EstimateTriangles() || s.Wedges != tc.EstimateWedges() || s.Transitivity != tc.EstimateTransitivity() {
		t.Fatal("TriangleCounter snapshot disagrees with estimates at batch boundary")
	}

	pc := streamtri.NewParallelTriangleCounter(2000, 2, streamtri.WithSeed(62))
	pc.AddBatch(edges)
	ps := pc.Snapshot()
	if ps.Edges != pc.Edges() {
		t.Fatalf("snapshot edges %d != %d", ps.Edges, pc.Edges())
	}
	if ps.Triangles != pc.EstimateTriangles() || ps.Wedges != pc.EstimateWedges() || ps.Transitivity != pc.EstimateTransitivity() {
		t.Fatal("ParallelTriangleCounter snapshot disagrees with estimates at batch boundary")
	}
}

// TestSnapshotExcludesBufferedEdges pins the documented consistency
// model: edges still sitting in the intake buffer are not part of the
// snapshot until a batch boundary passes.
func TestSnapshotExcludesBufferedEdges(t *testing.T) {
	tc := streamtri.NewTriangleCounter(64, streamtri.WithSeed(7), streamtri.WithBatchSize(1000))
	edges := syn3regStream(63)
	for _, e := range edges[:500] {
		tc.Add(e)
	}
	if got := tc.Snapshot().Edges; got != 0 {
		t.Fatalf("snapshot includes buffered edges: %d", got)
	}
	tc.Flush()
	if got := tc.Snapshot().Edges; got != 500 {
		t.Fatalf("post-flush snapshot edges = %d, want 500", got)
	}
}

// TestSnapshotReadersDuringParallelIngest drives the public serving
// shape under -race: 4 goroutines poll Snapshot while the owner
// goroutine ingests through the parallel counter.
func TestSnapshotReadersDuringParallelIngest(t *testing.T) {
	const readers = 4
	edges := syn3regStream(64)
	pc := streamtri.NewParallelTriangleCounter(512, 2,
		streamtri.WithSeed(65), streamtri.WithBatchSize(128))

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var last uint64
			for !stop.Load() {
				s := pc.Snapshot()
				if s.Edges < last {
					t.Errorf("reader %d: snapshot edges went backwards %d -> %d", g, last, s.Edges)
					return
				}
				last = s.Edges
			}
		}(g)
	}
	for _, e := range edges {
		pc.Add(e)
	}
	pc.Flush()
	stop.Store(true)
	wg.Wait()
	if got := pc.Snapshot().Edges; got != uint64(len(edges)) {
		t.Fatalf("final snapshot edges = %d, want %d", got, len(edges))
	}
}

// TestParallelCheckpointRoundTripPublic: the parallel counter's
// checkpoint must restore to a full peer — identical estimates
// immediately, and identical evolution under further ingestion.
func TestParallelCheckpointRoundTripPublic(t *testing.T) {
	edges := syn3regStream(47)
	a := streamtri.NewParallelTriangleCounter(2000, 3, streamtri.WithSeed(48))
	a.AddBatch(edges[:1200])

	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := streamtri.RestoreParallelTriangleCounter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Edges() != a.Edges() || b.NumShards() != a.NumShards() {
		t.Fatal("restored counter metadata differs")
	}
	if b.Snapshot() != a.Snapshot() {
		t.Fatal("restored snapshot differs from checkpointed one")
	}

	a.AddBatch(edges[1200:])
	b.AddBatch(edges[1200:])
	if a.EstimateTriangles() != b.EstimateTriangles() {
		t.Fatal("restored counter diverged")
	}
	if a.EstimateTransitivity() != b.EstimateTransitivity() {
		t.Fatal("restored transitivity diverged")
	}

	// Close is a flush: buffered edges reach the published snapshot.
	a.Add(streamtri.Edge{U: 1 << 30, V: 1<<30 + 1})
	if a.Snapshot().Edges == a.Edges() {
		t.Fatal("a buffered edge is already in the snapshot")
	}
	a.Close()
	if got := a.Snapshot().Edges; got != a.Edges() {
		t.Fatalf("snapshot after Close reflects %d edges, want %d", got, a.Edges())
	}
}

// TestParallelCheckpointErrorsPublic mirrors the TriangleCounter error
// cases for the parallel restore path.
func TestParallelCheckpointErrorsPublic(t *testing.T) {
	if _, err := streamtri.RestoreParallelTriangleCounter(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty checkpoint must error")
	}
	bad := make([]byte, 24) // zero batch size
	if _, err := streamtri.RestoreParallelTriangleCounter(bytes.NewReader(bad)); err == nil {
		t.Fatal("zero batch size must error")
	}
	// The parallel counter runs a TriangleCounter's engine, so a
	// TriangleCounter checkpoint restores as a parallel one, exactly.
	tc := streamtri.NewTriangleCounter(64, streamtri.WithSeed(9))
	tc.AddBatch(syn3regStream(49)[:100])
	var buf bytes.Buffer
	if _, err := tc.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	pc, err := streamtri.RestoreParallelTriangleCounter(&buf)
	if err != nil {
		t.Fatalf("plain counter checkpoint as parallel: %v", err)
	}
	if pc.Snapshot() != tc.Snapshot() {
		t.Fatal("plain counter checkpoint restored as parallel with other estimates")
	}
}
