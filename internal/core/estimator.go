// Package core implements the paper's primary contribution: neighborhood
// sampling (Algorithm 1) and the triangle-counting, wedge-counting, and
// transitivity estimators built on it (Sections 3.1–3.3 and 3.5),
// including the O(r+w)-per-batch bulk-processing scheme of Theorem 3.5.
package core

import (
	"streamtri/internal/graph"
	"streamtri/internal/randx"
)

// Estimator is the state of one neighborhood-sampling instance
// (Section 3.1):
//
//	r1 — level-1 edge, uniform over the stream so far (reservoir sample);
//	r2 — level-2 edge, uniform over N(r1), the edges adjacent to r1 that
//	     arrive after it;
//	c  — |N(r1)| so far;
//	t  — whether the wedge r1–r2 has been closed into a triangle.
//
// Positions are 1-based stream indexes; they are retained because the
// bulk-processing algorithm needs to order closing edges relative to r2
// (the paper: "when we store an edge, we also keep the position in the
// stream where it appears").
//
// The three flags, hasR1, hasR2 and hasT, live in the top three bits of
// the word that holds r2's position and are read through the methods of
// those names. No stream position exceeds maxEdges = 2^60, so those
// bits are free, and an estimator takes 40 bytes.
type Estimator struct {
	r1, r2     graph.Edge
	r1Pos      uint64
	r2PosFlags uint64 // r2's position in the low 61 bits, then flagR1, flagR2, flagT
	c          uint64
}

// The flag bits of Estimator.r2PosFlags, in the order of the state
// byte of a checkpoint record (serialize.go), so one shift by flagShift
// converts between the two, and the mask of r2's position.
const (
	flagShift = 61
	flagR1    = 1 << flagShift
	flagR2    = 2 << flagShift
	flagT     = 4 << flagShift
	r2PosMask = flagR1 - 1
)

func (est *Estimator) hasR1() bool   { return est.r2PosFlags&flagR1 != 0 }
func (est *Estimator) hasR2() bool   { return est.r2PosFlags&flagR2 != 0 }
func (est *Estimator) hasT() bool    { return est.r2PosFlags&flagT != 0 }
func (est *Estimator) r2Pos() uint64 { return est.r2PosFlags & r2PosMask }

// setR1 adopts e, the edge at position pos, as the level-1 edge. It
// restarts c and drops r2 and the triangle; r2's edge and position stay
// as they were, since a checkpoint records them.
func (est *Estimator) setR1(e graph.Edge, pos uint64) {
	est.r1, est.r1Pos, est.c = e, pos, 0
	est.r2PosFlags = est.r2PosFlags&r2PosMask | flagR1
}

// setR2 adopts e, the edge at position pos, as the level-2 edge, with
// its wedge open.
func (est *Estimator) setR2(e graph.Edge, pos uint64) {
	est.r2 = e
	est.r2PosFlags = pos | est.r2PosFlags&flagR1 | flagR2
}

// setT records whether the wedge r1–r2 is closed.
func (est *Estimator) setT(closed bool) {
	est.r2PosFlags &^= flagT
	if closed {
		est.r2PosFlags |= flagT
	}
}

// process advances the estimator by one edge, the i-th of the stream
// (1-based). This is Algorithm 1 verbatim: reservoir-sample r1 from the
// stream, reservoir-sample r2 from the substream N(r1), then wait for the
// closing edge.
func (est *Estimator) process(e graph.Edge, i uint64, rng *randx.Source) {
	if rng.CoinOneIn(i) {
		est.setR1(e, i)
		return
	}
	// i >= 2 here, so r1 is set (the first edge always takes the branch
	// above).
	if !e.Adjacent(est.r1) {
		return
	}
	est.c++
	if rng.CoinOneIn(est.c) {
		est.setR2(e, i)
		return
	}
	if est.hasR2() && !est.hasT() && est.closesWedge(e) {
		est.setT(true)
	}
}

// closesWedge reports whether e joins the two outer endpoints of the
// wedge formed by r1 and r2. Precondition: hasR1 && hasR2.
func (est *Estimator) closesWedge(e graph.Edge) bool {
	s, ok := est.r1.SharedVertex(est.r2)
	if !ok {
		return false
	}
	o1, o2 := est.r1.Other(s), est.r2.Other(s)
	return (e.U == o1 && e.V == o2) || (e.U == o2 && e.V == o1)
}

// TriangleEstimate returns the unbiased estimate τ̃ of Lemma 3.2 for a
// stream of m edges: c·m if a triangle is held, 0 otherwise.
func (est *Estimator) TriangleEstimate(m uint64) float64 {
	if !est.hasT() {
		return 0
	}
	return float64(est.c) * float64(m)
}

// WedgeEstimate returns the unbiased estimate ζ̃ = c·m of Lemma 3.10.
func (est *Estimator) WedgeEstimate(m uint64) float64 {
	if !est.hasR1() {
		return 0
	}
	return float64(est.c) * float64(m)
}

// Triangle returns the sampled triangle and true if the estimator holds
// one.
func (est *Estimator) Triangle() (graph.Triangle, bool) {
	if !est.hasT() {
		return graph.Triangle{}, false
	}
	s, _ := est.r1.SharedVertex(est.r2)
	return graph.MakeTriangle(s, est.r1.Other(s), est.r2.Other(s)), true
}

// HasTriangle reports whether the estimator currently holds a triangle.
func (est *Estimator) HasTriangle() bool { return est.hasT() }

// C returns the estimator's neighborhood counter c = |N(r1)|.
func (est *Estimator) C() uint64 { return est.c }

// Level1 returns the level-1 edge, its stream position, and whether it is
// set.
func (est *Estimator) Level1() (graph.Edge, uint64, bool) {
	return est.r1, est.r1Pos, est.hasR1()
}

// Level2 returns the level-2 edge, its stream position, and whether it is
// set.
func (est *Estimator) Level2() (graph.Edge, uint64, bool) {
	return est.r2, est.r2Pos(), est.hasR2()
}
