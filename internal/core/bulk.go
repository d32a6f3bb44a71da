package core

import "streamtri/internal/graph"

// AddBatch advances all estimators as if the batch's edges had been
// played one at a time after the stream so far (the bulkTC algorithm of
// Theorem 3.5). Cost is O(r + w) time and O(r + w) extra space per call;
// with w = Θ(r) the whole stream costs O(m + r).
//
// The resulting estimator states are identically distributed to those
// produced by calling Add on each edge in order. The implementation is
// map-free; at steady state the only heap allocation per call is the
// fixed-size estimate snapshot published for concurrent readers.
func (c *Counter) AddBatch(batch []graph.Edge) {
	if len(batch) == 0 {
		return
	}
	c.own.build(batch)
	c.absorb(batch, &c.own)
	c.publish()
}

// absorb advances every estimator over batch, whose index x has already
// been built. It draws every random number of the batch and only reads
// x, so the shards of a ShardedCounter can share one index. Draws happen
// in a fixed order — the level-1 step, then one draw per touched
// estimator in estimator order — which is what keeps states
// bit-identical across implementations of the index.
func (c *Counter) absorb(batch []graph.Edge, x *batchIndex) {
	w := uint64(len(batch))
	mOld := c.m
	total := mOld + w

	// --- Step 1: resample level-1 edges. Each estimator keeps its
	// current r1 with probability m/(m+w); otherwise it adopts a uniform
	// batch edge. One uniform draw over [1, m+w] implements both choices.
	assign := func(idx int, bi uint64) {
		est := &c.ests[idx]
		est.r1, est.r1Pos, est.hasR1 = batch[bi], mOld+bi+1, true
		est.c, est.hasR2, est.hasT = 0, false, false
	}
	if c.useSkip {
		// Section 4 optimization: the replacement indicator vector is
		// Bernoulli(w/(m+w)) per estimator; generate only the successes
		// via geometric gaps, then draw the batch index for each.
		p := float64(w) / float64(total)
		c.rng.SkipSequence(uint64(len(c.ests)), p, func(i uint64) {
			assign(int(i), c.rng.Uint64N(w))
		})
	} else {
		for idx := range c.ests {
			if v := c.rng.RandInt(1, total); v > mOld {
				assign(idx, v-mOld-1)
			}
		}
	}

	// --- Step 2: choose each estimator's level-2 edge as either the
	// retained old r2 or an EVENTB subscription (Algorithm 3), using
	// c⁻ = |N(r1) \ B| (the inherited counter) and c⁺ = |N(r1) ∩ B|
	// derived from Observation 3.6. A subscription EVENTB(v, d) fires at
	// the batch edge where v reaches degree d, which the occurrence list
	// names directly; the new level-2 edge's wedge is then closed by one
	// read of the batch-edge table.
	for idx := range c.ests {
		est := &c.ests[idx]
		if !est.hasR1 {
			continue
		}
		// ix, iy are r1's interned endpoints, dx, dy their final batch
		// degrees, and bx, by their degrees when r1 arrived (β; 0 when r1
		// predates the batch). The upper bound on r1Pos only matters for a
		// damaged restored state; it keeps such a state inside the index.
		var ix, iy, dx, dy, bx, by uint32
		if est.r1Pos > mOld && est.r1Pos <= total {
			e := &x.edges[est.r1Pos-mOld-1]
			ix, iy, bx, by = e.u, e.v, e.du, e.dv
			dx, dy = x.verts[ix].deg, x.verts[iy].deg
		} else {
			ix, dx = x.degree(est.r1.U)
			iy, dy = x.degree(est.r1.V)
		}
		a := uint64(dx - bx)
		b := uint64(dy - by)
		cMinus := est.c
		cPlus := a + b
		est.c = cMinus + cPlus
		if cPlus == 0 {
			// No batch edge touches r1: state unchanged except that an
			// existing open wedge may still be closed by a batch edge.
			c.closeRetainedWedge(idx, x)
			continue
		}
		phi := c.rng.RandInt(1, cMinus+cPlus)
		switch {
		case phi <= cMinus:
			// Keep the current level-2 edge (and triangle, if any).
			c.closeRetainedWedge(idx, x)
		case phi <= cMinus+a:
			c.setLevel2(idx, batch, x, x.reach(ix, bx+uint32(phi-cMinus)))
		default:
			c.setLevel2(idx, batch, x, x.reach(iy, by+uint32(phi-cMinus-a)))
		}
	}
	c.m = total
}

// setLevel2 installs batch edge bi as estimator idx's level-2 edge, then
// resolves the wedge against the batch-edge table: the wedge closes iff
// its closing edge occurs in the batch strictly after bi. r2 cannot
// change again within this batch, so the check is final — equivalent to
// the subscription table Q firing on a later edge.
func (c *Counter) setLevel2(idx int, batch []graph.Edge, x *batchIndex, bi uint32) {
	est := &c.ests[idx]
	est.r2, est.r2Pos, est.hasR2 = batch[bi], c.m+uint64(bi)+1, true
	est.hasT = false
	if sh, ok := est.r1.SharedVertex(est.r2); ok {
		est.hasT = x.closes(est.r1.Other(sh), est.r2.Other(sh), int32(bi))
	}
}

// closeRetainedWedge resolves the open wedge of an estimator that kept
// its pre-batch level-2 edge: any occurrence of the closing edge in the
// batch arrives after r2 and closes the wedge. One read of the batch-edge
// table replaces the per-batch re-subscription into table Q — usually
// rejected by the vertex bitmap without a hash probe.
func (c *Counter) closeRetainedWedge(idx int, x *batchIndex) {
	est := &c.ests[idx]
	if !est.hasR2 || est.hasT {
		return
	}
	if sh, ok := est.r1.SharedVertex(est.r2); ok {
		est.hasT = x.closes(est.r1.Other(sh), est.r2.Other(sh), -1)
	}
}
