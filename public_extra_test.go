package streamtri_test

import (
	"bytes"
	"math"
	"testing"

	"streamtri"
)

func TestCheckpointRoundTripPublic(t *testing.T) {
	edges := syn3regStream(41)
	a := streamtri.NewTriangleCounter(2000, streamtri.WithSeed(42))
	a.AddBatch(edges[:1200])

	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := streamtri.RestoreTriangleCounter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Edges() != a.Edges() || b.NumEstimators() != a.NumEstimators() {
		t.Fatal("restored counter metadata differs")
	}

	a.AddBatch(edges[1200:])
	b.AddBatch(edges[1200:])
	if a.EstimateTriangles() != b.EstimateTriangles() {
		t.Fatal("restored counter diverged")
	}
	if a.EstimateTransitivity() != b.EstimateTransitivity() {
		t.Fatal("restored transitivity diverged")
	}
}

func TestCheckpointErrorsPublic(t *testing.T) {
	if _, err := streamtri.RestoreTriangleCounter(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty checkpoint must error")
	}
	bad := make([]byte, 16) // zero batch size
	if _, err := streamtri.RestoreTriangleCounter(bytes.NewReader(bad)); err == nil {
		t.Fatal("zero batch size must error")
	}
}

func TestParallelCounterMatchesAccuracy(t *testing.T) {
	edges := syn3regStream(43)
	pc := streamtri.NewParallelTriangleCounter(8000, 4, streamtri.WithSeed(44))
	for _, e := range edges {
		pc.Add(e)
	}
	if pc.Edges() != 3000 {
		t.Fatalf("Edges = %d", pc.Edges())
	}
	if pc.NumShards() != 1 { // p no longer splits the estimators
		t.Fatalf("NumShards = %d", pc.NumShards())
	}
	got := pc.EstimateTriangles()
	if math.Abs(got-1000) > 200 {
		t.Fatalf("parallel τ̂ = %v, want 1000 ± 200", got)
	}
	if k := pc.EstimateTransitivity(); math.Abs(k-0.5) > 0.12 {
		t.Fatalf("parallel κ̂ = %v", k)
	}
	if mom := pc.EstimateTrianglesMedianOfMeans(8); math.Abs(mom-1000) > 250 {
		t.Fatalf("parallel MoM = %v", mom)
	}
	if z := pc.EstimateWedges(); math.Abs(z-6000) > 900 {
		t.Fatalf("parallel ζ̂ = %v, want 6000", z)
	}
}

func TestParallelCounterAddBatch(t *testing.T) {
	edges := syn3regStream(45)
	pc := streamtri.NewParallelTriangleCounter(2000, 2, streamtri.WithSeed(46))
	pc.AddBatch(edges[:1000])
	pc.Add(edges[1000])
	pc.AddBatch(edges[1001:])
	if pc.Edges() != 3000 {
		t.Fatalf("Edges = %d", pc.Edges())
	}
	_ = pc.EstimateTriangles()
}
