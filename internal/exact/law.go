package exact

import "streamtri/internal/graph"

// SamplingLaw is the closed-form law of one neighborhood-sampling
// estimator's state at the end of a simple stream (Lemma 3.1): r1 is
// uniform over the m edges and, given r1 = e_i, r2 is uniform over the
// c(e_i) edges adjacent to e_i that arrive after it, or absent when
// c(e_i) = 0. So P(r1 = e_i, r2 = e_j) = 1/(m·c(e_i)) and P(r1 = e_i,
// no r2) = 1/m. Each outcome fixes the rest of the state: the
// estimator's c is c(e_i), and it holds a triangle exactly when the edge
// closing the wedge (e_i, e_j) arrives after e_j.
type SamplingLaw struct {
	Outcomes []SampleOutcome
	index    map[[2]uint64]int
}

// SampleOutcome is one outcome of a SamplingLaw: the 1-based stream
// positions of r1 and r2 (R2 = 0 when there is no r2), its probability,
// r1's c, and whether the estimator holds a triangle.
type SampleOutcome struct {
	R1, R2 uint64
	P      float64
	C      uint64
	Closed bool
}

// NeighborhoodSamplingLaw enumerates the law on stream, which must be a
// non-empty simple stream. It takes O(m²) time, for the tiny streams an
// exact-law test runs on.
func NeighborhoodSamplingLaw(stream []graph.Edge) *SamplingLaw {
	m := len(stream)
	pos := make(map[graph.Edge]int, m)
	for i, e := range stream {
		pos[e.Canonical()] = i
	}
	l := &SamplingLaw{index: make(map[[2]uint64]int)}
	add := func(o SampleOutcome) {
		l.index[[2]uint64{o.R1, o.R2}] = len(l.Outcomes)
		l.Outcomes = append(l.Outcomes, o)
	}
	for i, r1 := range stream {
		var later []int
		for j := i + 1; j < m; j++ {
			if stream[j].Adjacent(r1) {
				later = append(later, j)
			}
		}
		c := uint64(len(later))
		if c == 0 {
			add(SampleOutcome{R1: uint64(i + 1), P: 1 / float64(m)})
			continue
		}
		for _, j := range later {
			s, _ := r1.SharedVertex(stream[j])
			k, ok := pos[graph.Edge{U: r1.Other(s), V: stream[j].Other(s)}.Canonical()]
			add(SampleOutcome{
				R1: uint64(i + 1), R2: uint64(j + 1), P: 1 / (float64(m) * float64(c)),
				C: c, Closed: ok && k > j,
			})
		}
	}
	return l
}

// Find returns the index in Outcomes of the outcome with r1 and r2 at
// stream positions r1Pos and r2Pos (0 for no r2), and false when the law
// gives that state probability 0.
func (l *SamplingLaw) Find(r1Pos, r2Pos uint64) (int, bool) {
	i, ok := l.index[[2]uint64{r1Pos, r2Pos}]
	return i, ok
}

// Probabilities returns the outcomes' probabilities, in Outcomes' order.
func (l *SamplingLaw) Probabilities() []float64 {
	p := make([]float64, len(l.Outcomes))
	for i, o := range l.Outcomes {
		p[i] = o.P
	}
	return p
}
