package core

import (
	"time"

	"streamtri/internal/graph"
)

// PhaseNames names AddBatch's phases in the order it runs them, as
// BatchStats.Phase indexes them.
var PhaseNames = [...]string{"level1", "rebuild", "scan", "level2", "closeWedges", "publish"}

const (
	phaseLevel1 = iota
	phaseRebuild
	phaseScan
	phaseLevel2
	phaseCloseWedges
	phasePublish
)

// BatchStats sums what a counter's AddBatch calls did: the wall time of
// each phase, and the work of scan's filter. It is kept per batch, from
// one clock read per phase and the lengths of loops that run anyway, so
// it costs nothing per edge. A restored counter starts from zero.
type BatchStats struct {
	// Phase holds the time spent in each phase, indexed as PhaseNames.
	Phase [len(PhaseNames)]time.Duration
	// Candidates counts the batch endpoints that passed the key filter
	// and were looked up, Hits those that are keys, and Rebuilds the
	// rebuilds of the key index.
	Candidates, Hits, Rebuilds uint64
}

// lap adds the time since t to phase p and returns the time it read.
func (s *BatchStats) lap(p int, t time.Time) time.Time {
	now := time.Now()
	s.Phase[p] += now.Sub(t)
	return now
}

// BatchStats returns the sums over the counter's AddBatch calls since it
// was made or restored.
func (c *Counter) BatchStats() BatchStats {
	s := c.stats
	s.Rebuilds = c.idx.build
	return s
}

// AddBatch advances all estimators as if the batch's edges had been
// played one at a time after the stream so far (the bulkTC algorithm of
// Theorem 3.5). Cost is O(r + w) time and extra space per call, every
// hash table holds O(r) entries however large w is, and the batch is
// streamed once; with w = Θ(r) the whole stream costs O(m + r).
//
// The resulting estimator states are identically distributed to those
// produced by calling Add on each edge in order. The implementation is
// map-free; at steady state the only heap allocation per call is the
// fixed-size estimate snapshot published for concurrent readers.
//
// The counter draws from its RNG in a fixed order — its level-1 step,
// then one draw per estimator with a level-1 endpoint in the batch, in
// estimator order — and its batch index draws nothing, so the states do
// not depend on when or how often the index was rebuilt.
func (c *Counter) AddBatch(batch []graph.Edge) {
	if len(batch) == 0 {
		return
	}
	x := &c.idx
	x.stale = x.stale || x.build == 0 // never built: a fresh or restored counter
	st := &c.stats
	t := time.Now()
	c.level1(batch, x)
	t = st.lap(phaseLevel1, t)
	if x.stale {
		x.rebuild(c.ests)
	}
	t = st.lap(phaseRebuild, t)
	x.batchTables = tableSets.Get(0)
	st.Candidates += uint64(x.scan(batch, len(c.ests)))
	st.Hits += uint64(len(x.hits))
	t = st.lap(phaseScan, t)
	c.level2(batch, x)
	t = st.lap(phaseLevel2, t)
	x.closeWedges(batch, c.ests)
	tableSets.Put(x.batchTables)
	x.batchTables = nil
	t = st.lap(phaseCloseWedges, t)
	c.m += uint64(len(batch))
	c.publish()
	st.lap(phasePublish, t)
}

// level1 is Step 1: resample level-1 edges. Each estimator keeps its
// current r1 with probability m/(m+w); otherwise it adopts a uniform
// batch edge, whose endpoints the index interns. One uniform draw over
// [1, m+w] implements both choices.
func (c *Counter) level1(batch []graph.Edge, x *batchIndex) {
	w := uint64(len(batch))
	mOld := c.m
	total := mOld + w
	assign := func(idx int, bi uint64) {
		est := &c.ests[idx]
		est.setR1(batch[bi], mOld+bi+1)
		x.adopt(idx, est.r1)
	}
	if c.useSkip {
		// Section 4 optimization: the replacement indicator vector is
		// Bernoulli(w/(m+w)) per estimator; generate only the successes
		// via geometric gaps, then draw the batch index for each.
		p := float64(w) / float64(total)
		c.rng.SkipSequence(uint64(len(c.ests)), p, func(i uint64) {
			assign(int(i), c.rng.Uint64N(w))
		})
		return
	}
	for idx := range c.ests {
		if v := c.rng.RandInt(1, total); v > mOld {
			assign(idx, v-mOld-1)
		}
	}
}

// level2 is Step 2: choose each estimator's level-2 edge as either the
// retained old r2 or an EVENTB subscription (Algorithm 3), using
// c⁻ = |N(r1) \ B| (the inherited counter) and c⁺ = |N(r1) ∩ B| derived
// from Observation 3.6. A subscription EVENTB(v, d) fires at the batch
// edge where v reaches degree d, which the occurrence list names
// directly. Every wedge left open is handed to the index, which closes
// it once the batch has been streamed past all of them (closeWedges).
// Step 2 walks the estimators in order through their cached ids; one
// whose level-1 endpoints both have batch degree 0 has c⁺ = 0, draws
// nothing, and holds no wedge the batch can close.
func (c *Counter) level2(batch []graph.Edge, x *batchIndex) {
	mOld := c.m
	total := mOld + uint64(len(batch))
	for idx := range c.ests {
		est := &c.ests[idx]
		if !est.hasR1() {
			continue
		}
		// ix, iy are r1's ids, dx, dy their final batch degrees, and
		// bx, by their degrees when r1 arrived (β; 0 when r1 predates
		// the batch). The upper bound on r1Pos only matters for a damaged
		// restored state; it keeps such a state inside the index.
		ids := x.ids[idx]
		ix, iy := ids.u, ids.v
		dx, dy := x.degree(ix), x.degree(iy)
		if dx == 0 && dy == 0 {
			continue
		}
		var bx, by uint32
		if est.r1Pos > mOld && est.r1Pos <= total {
			bi := uint32(est.r1Pos - mOld - 1)
			bx, by = x.rank(ix, bi)+1, x.rank(iy, bi)+1
			if ix == iy {
				by++ // a self loop's second endpoint increment
			}
		}
		a := uint64(dx - bx)
		b := uint64(dy - by)
		cMinus := est.c
		cPlus := a + b
		est.c = cMinus + cPlus
		if cPlus == 0 {
			// No later batch edge touches r1: state unchanged except that
			// an existing open wedge may still be closed by a batch edge.
			x.watchRetained(est, idx, ids)
			continue
		}
		phi := c.rng.RandInt(1, cMinus+cPlus)
		switch {
		case phi <= cMinus:
			// Keep the current level-2 edge (and triangle, if any).
			x.watchRetained(est, idx, ids)
		case phi <= cMinus+a:
			c.setLevel2(idx, ids, batch, x, x.reach(ix, bx+uint32(phi-cMinus)))
		default:
			c.setLevel2(idx, ids, batch, x, x.reach(iy, by+uint32(phi-cMinus-a)))
		}
	}
}

// setLevel2 installs batch edge bi as estimator idx's level-2 edge and
// asks the index to close its wedge if the closing edge occurs in the
// batch strictly after bi. r2 cannot change again within this batch, so
// the answer is final — equivalent to the subscription table Q firing
// on a later edge.
func (c *Counter) setLevel2(idx int, ids vertexIDs, batch []graph.Edge, x *batchIndex, bi uint32) {
	est := &c.ests[idx]
	est.setR2(batch[bi], c.m+uint64(bi)+1)
	x.watch(est, idx, ids, int32(bi))
}
