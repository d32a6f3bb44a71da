package window

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"streamtri/internal/core"
	"streamtri/internal/exact"
	"streamtri/internal/gen"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

// The windowed accuracy gate. Every case is a fixed stream whose window
// triangle count τ_w is exact (exact.Triangles over the last w edges),
// checked at positions before the window fills, just after, and deep
// into the stream, over T fixed-seed trials of r estimators each. At
// every position the gate asserts
//
//   - unbiasedness: |mean − τ_w| ≤ gateZ·s/√T, s the trial standard
//     deviation;
//   - Theorem 5.8 coverage: the share of trials whose relative error is
//     within TheoreticalErrorBound(r, gateDelta, m_w, Δ_w, τ_w) is at
//     least 1 − gateDelta − gateZ·√(gateDelta(1−gateDelta)/T).
//
// gateZ = 4 is a two-sided false-alarm rate of about 6e-5 per check.
// The seeds (gateSeed + trial), gateZ and the slack are part of the
// gate: changing any of them is a gate change. T and r are sized so that
// an estimate scaled by 1.1 fails.
const (
	gateZ     = 4.0
	gateDelta = 0.1
	gateSeed  = 1_000_000
)

// windowEngine is what the gate needs from a windowed counter.
type windowEngine interface {
	Add(graph.Edge)
	EstimateTriangles() float64
}

// gateCase is one stream, window and estimator budget with the stream
// positions (edge counts) at which the estimate is checked. convertAt is
// the position at which the converted-state run restores a version-1
// checkpoint of the reference engine; refTrials > 0 adds the case to the
// two-sample check against the reference engine.
type gateCase struct {
	name      string
	edges     []graph.Edge
	w         uint64
	r         int
	trials    int
	at        []int
	convertAt int
	refTrials int
}

// windowTruth holds the exact parameters of the window graph at one
// position.
type windowTruth struct {
	tau, m, maxDeg uint64
}

func truthAt(edges []graph.Edge, w uint64, t int) windowTruth {
	lo := 0
	if uint64(t) > w {
		lo = t - int(w)
	}
	g := graph.MustFromEdges(edges[lo:t])
	return windowTruth{tau: exact.Triangles(g), m: g.NumEdges(), maxDeg: uint64(g.MaxDegree())}
}

// disjointBlocks concatenates the shuffled edge sets of fresh copies of
// block, relabelled so the copies share no vertex.
func disjointBlocks(block []graph.Edge, copies int, seed uint64) []graph.Edge {
	var out []graph.Edge
	for i := 0; i < copies; i++ {
		off := graph.NodeID(10_000 * (i + 1))
		for _, e := range stream.Shuffle(block, randx.New(seed+uint64(i))) {
			out = append(out, graph.Edge{U: e.U + off, V: e.V + off})
		}
	}
	return out
}

// gateCases is the in-tree grid. The last case is the former
// TestWindowEstimateUnbiased stream: 300 triangle-free noise edges, then
// a shuffled syn3reg block exactly one window long.
func gateCases() []gateCase {
	noise := gen.Path(301)
	var block []graph.Edge
	for _, e := range gen.Syn3Reg(8, 4) { // τ = 8·4 + 4·2 = 40
		block = append(block, graph.Edge{U: e.U + 1000, V: e.V + 1000})
	}
	block = stream.Shuffle(block, randx.New(4))
	noisy := append(append([]graph.Edge{}, noise...), block...)
	return []gateCase{
		{name: "syn3reg", edges: gen.Syn3Reg(100, 100), w: 500, r: 256, trials: 240,
			at: []int{400, 520, 1450}, convertAt: 300},
		{name: "K20x4", edges: disjointBlocks(gen.Complete(20), 4, 7), w: 250, r: 256, trials: 160,
			at: []int{180, 260, 700}, convertAt: 255, refTrials: 80},
		{name: "holmekim", edges: gen.HolmeKim(randx.New(5), 250, 4, 0.9), w: 300, r: 256, trials: 480,
			at: []int{250, 320, 950}, convertAt: 200},
		{name: "noise+syn3reg", edges: noisy, w: uint64(len(block)), r: 256, trials: 240,
			at: []int{300 + 60, len(noisy)}, convertAt: 340, refTrials: 80},
	}
}

// runGateTrials feeds tc's stream to trials engines built by mk and
// returns est[i][k], trial k's estimate at position tc.at[i].
func runGateTrials(tc gateCase, trials int, mk func(seed uint64) windowEngine) [][]float64 {
	est := make([][]float64, len(tc.at))
	for k := 0; k < trials; k++ {
		c := mk(gateSeed + uint64(k))
		next := 0
		for i, e := range tc.edges[:tc.at[len(tc.at)-1]] {
			c.Add(e)
			if i+1 == tc.at[next] {
				est[next] = append(est[next], c.EstimateTriangles())
				next++
			}
		}
	}
	return est
}

// meanSD returns the mean and the sample standard deviation of xs.
func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}

// gateCheck applies the unbiasedness and coverage checks to one
// position's trial estimates and returns a description of the first
// failure, or "".
func gateCheck(est []float64, truth windowTruth, r int) string {
	T := float64(len(est))
	tau := float64(truth.tau)
	mean, sd := meanSD(est)
	if tol := gateZ * sd / math.Sqrt(T); math.Abs(mean-tau) > tol {
		return fmt.Sprintf("biased: mean %.2f, τ_w %.0f, tolerance ±%.2f (s=%.2f, T=%.0f)", mean, tau, tol, sd, T)
	}
	if truth.tau == 0 {
		return ""
	}
	eps := core.ErrorBound(r, gateDelta, truth.m, truth.maxDeg, truth.tau)
	within := 0
	for _, x := range est {
		if math.Abs(x-tau) <= eps*tau {
			within++
		}
	}
	need := 1 - gateDelta - gateZ*math.Sqrt(gateDelta*(1-gateDelta)/T)
	if share := float64(within) / T; share < need {
		return fmt.Sprintf("coverage: %.3f of trials within ε=%.3f, need ≥ %.3f", share, eps, need)
	}
	return ""
}

// runGate runs the whole grid on the chain-sampling engine. With
// converted, each trial instead starts on the reference engine, restores
// its version-1 checkpoint at the case's convertAt and continues on the
// converted Counter; only the positions after convertAt are checked,
// over half the trials (the reference prefix is slow).
func runGate(t *testing.T, converted bool) {
	for _, tc := range gateCases() {
		t.Run(tc.name, func(t *testing.T) {
			trials, from := tc.trials, 0
			mk := func(seed uint64) windowEngine { return NewCounter(tc.r, tc.w, seed) }
			if converted {
				trials, from = tc.trials/2, tc.convertAt
				mk = func(seed uint64) windowEngine {
					return &convertingEngine{tb: t, t0: uint64(tc.convertAt), ref: newRefCounter(tc.r, tc.w, seed)}
				}
			}
			est := runGateTrials(tc, trials, mk)
			for i, pos := range tc.at {
				if pos <= from {
					continue
				}
				truth := truthAt(tc.edges, tc.w, pos)
				if msg := gateCheck(est[i], truth, tc.r); msg != "" {
					t.Errorf("t=%d (w=%d, m_w=%d, Δ_w=%d): %s", pos, tc.w, truth.m, truth.maxDeg, msg)
				}
			}
		})
	}
}

func TestWindowAccuracyGate(t *testing.T) { runGate(t, false) }

// convertingEngine runs the reference priority engine for the first t0
// edges, then restores its version-1 checkpoint and continues on the
// converted Counter.
type convertingEngine struct {
	tb  testing.TB
	t0  uint64
	ref *refCounter
	c   *Counter
}

func (e *convertingEngine) Add(x graph.Edge) {
	if e.c != nil {
		e.c.Add(x)
		return
	}
	e.ref.Add(x)
	if e.ref.t == e.t0 {
		e.c = e.ref.restoreV1(e.tb)
	}
}

func (e *convertingEngine) EstimateTriangles() float64 {
	if e.c != nil {
		return e.c.EstimateTriangles()
	}
	return e.ref.EstimateTriangles()
}

// TestWindowAccuracyGateConvertedV1 runs the gate's checks on states
// restored from version-1 checkpoints of the reference engine.
func TestWindowAccuracyGateConvertedV1(t *testing.T) { runGate(t, true) }

// ksDistance returns the two-sample Kolmogorov–Smirnov statistic
// sup |F_a − F_b|.
func ksDistance(a, b []float64) float64 {
	a, b = slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b))
	var d float64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		x := min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

// TestWindowEnginesAgreeInDistribution compares the chain-sampling
// engine with the reference priority engine on the same cases: at every
// position their trial means must agree within gateZ Welch standard
// errors, and the Kolmogorov–Smirnov distance between their trial
// estimates must stay under the critical value at the same two-sided
// false-alarm rate as gateZ.
func TestWindowEnginesAgreeInDistribution(t *testing.T) {
	alpha := math.Erfc(gateZ / math.Sqrt2)
	ksC := math.Sqrt(-0.5 * math.Log(alpha/2))
	for _, tc := range gateCases() {
		if tc.refTrials == 0 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			ref := runGateTrials(tc, tc.refTrials, func(seed uint64) windowEngine { return newRefCounter(tc.r, tc.w, seed) })
			got := runGateTrials(tc, tc.trials, func(seed uint64) windowEngine { return NewCounter(tc.r, tc.w, seed) })
			for i, pos := range tc.at {
				ma, sa := meanSD(ref[i])
				mb, sb := meanSD(got[i])
				n, m := float64(len(ref[i])), float64(len(got[i]))
				if tol := gateZ * math.Sqrt(sa*sa/n+sb*sb/m); math.Abs(ma-mb) > tol {
					t.Errorf("t=%d: means differ: reference %.2f, chain sampling %.2f, tolerance ±%.2f", pos, ma, mb, tol)
				}
				if d, crit := ksDistance(ref[i], got[i]), ksC*math.Sqrt((n+m)/(n*m)); d > crit {
					t.Errorf("t=%d: Kolmogorov–Smirnov distance %.3f above %.3f", pos, d, crit)
				}
			}
		})
	}
}
