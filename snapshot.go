package streamtri

// EstimateSnapshot is a consistent point-in-time view of a counter's
// estimates, taken without blocking ingestion. All fields come from one
// atomically-published state, so Triangles, Wedges, and Transitivity are
// mutually consistent and Edges says exactly which stream prefix they
// describe: the last batch boundary. Edges the owner has buffered, or
// whose batch is still being absorbed, are not included — call Flush
// first when the very latest prefix matters more than not blocking.
type EstimateSnapshot struct {
	// Edges is the number of stream edges the estimates reflect.
	Edges uint64
	// Triangles is τ̂, the mean per-estimator triangle estimate
	// (Theorem 3.3) at the snapshot.
	Triangles float64
	// Wedges is ζ̂ (Lemma 3.11) at the snapshot.
	Wedges float64
	// Transitivity is κ̂ = 3τ̂/ζ̂ (Theorem 3.12), 0 when ζ̂ is 0.
	Transitivity float64
}

// Snapshot returns the estimates at the last completed batch boundary.
// Unlike the Estimate* methods it does not flush; it never blocks and is
// safe to call from any goroutine while the owner goroutine keeps
// calling Add/AddBatch — the read path a serving process queries between
// ingest batches (see doc.go, "Serving").
func (t *wholeStream[E]) Snapshot() EstimateSnapshot {
	s := t.eng.Snapshot()
	return EstimateSnapshot{
		Edges:        s.Edges(),
		Triangles:    s.Triangles(),
		Wedges:       s.Wedges(),
		Transitivity: s.Transitivity(),
	}
}
