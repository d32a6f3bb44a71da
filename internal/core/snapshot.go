package core

// EstimateSnapshot is an immutable view of a counter's aggregate
// estimator state, published atomically at batch boundaries. Readers
// holding a snapshot see a consistent (edges, estimates) pair from one
// prefix of the stream, and may query it freely while the owner keeps
// ingesting — the read path never takes a lock and never blocks a
// writer.
//
// The sums are accumulated in the same per-estimator iteration order the
// direct Estimate* methods historically used, so a snapshot taken at a
// batch boundary is bit-identical to what the direct computation would
// have returned at that moment.
type EstimateSnapshot struct {
	edges    uint64
	r        int
	triSum   float64
	wedgeSum float64
}

// Edges returns the number of stream edges the snapshot reflects.
func (s *EstimateSnapshot) Edges() uint64 { return s.edges }

// NumEstimators returns the number of estimators aggregated.
func (s *EstimateSnapshot) NumEstimators() int { return s.r }

// Triangles returns the mean per-estimator triangle estimate τ̂
// (Theorem 3.3) as of the snapshot.
func (s *EstimateSnapshot) Triangles() float64 { return s.triSum / float64(s.r) }

// Wedges returns the mean wedge estimate ζ̂ (Lemma 3.10) as of the
// snapshot.
func (s *EstimateSnapshot) Wedges() float64 { return s.wedgeSum / float64(s.r) }

// Transitivity returns κ̂ = 3τ̂/ζ̂ (Theorem 3.12), or 0 when the wedge
// estimate is 0.
func (s *EstimateSnapshot) Transitivity() float64 {
	z := s.Wedges()
	if z == 0 {
		return 0
	}
	return 3 * s.Triangles() / z
}

// publish recomputes the aggregate estimate sums from the live estimator
// states and atomically swaps them in as the counter's current snapshot.
// Called by the owner at every mutation boundary (construction, Add,
// AddBatch, restore); cost O(r), amortized O(1) per edge when batches
// are Θ(r).
func (c *Counter) publish() {
	s := &EstimateSnapshot{edges: c.m, r: len(c.ests)}
	for i := range c.ests {
		s.triSum += c.ests[i].TriangleEstimate(c.m)
		s.wedgeSum += c.ests[i].WedgeEstimate(c.m)
	}
	c.snap.Store(s)
}

// Snapshot returns the current published snapshot. Safe to call
// concurrently with the owner's Add/AddBatch; the returned value is
// immutable and reflects the most recently completed mutation.
func (c *Counter) Snapshot() *EstimateSnapshot { return c.snap.Load() }
