package stream

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"streamtri/internal/graph"
)

// The ordered k-way merge engine. Every source of an
// OrderedMultiPipeline reaches the merger as a sequence of refcounted
// block views — raw 16-byte v1-layout records plus the maximum of their
// timestamps — handed over by reference, never re-materialized as
// []TimestampedEdge: a v2 reader passes its validated zero-copy blocks,
// and any other source is adapted by filledBlockSource. The tournament
// runs directly over the raw records as a flat-key loser tree (parallel
// int64/int arrays instead of cursor pointers) replayed in ⌈log2 k⌉
// array compares, and gallops at *block* granularity: the view's max
// timestamp makes a whole block comparable against the runner-up key in
// O(1). When (max_ts, src) merges before the rival champion's key,
// every record in the block wins its tournament, so the block is copied
// through with zero per-edge comparisons; overlapping ranges fall back
// to an edge-level prefix walk bounded by the same key.
//
// The bound is what keeps that gallop sound: a view's maxTS must be
// ≥ every record in it. v2 readers check each record against the
// header's declared bounds; the adapter computes the exact maximum of
// the records it fills, so the bound holds for unsorted sources too.

// gallopAfter is the gallop hysteresis threshold (timsort's trick,
// adapted): the number of consecutive tournament decisions the same
// source must win before the merge switches from per-edge mode — one
// replay per edge — to galloping, which pays a runner-up walk up front
// to then emit the rest of the run with no tree work at all.
// Alternating inputs never reach the threshold and stay on the cheap
// per-edge path; runny inputs cross it within a few edges and amortize
// the setup over the whole run.
const gallopAfter = 4

// gallopOutcome says what ended a gallop run: the run's next edge no
// longer beating the runner-up key, the running source's clean
// exhaustion, or pipeline shutdown.
type gallopOutcome uint8

const (
	gallopRunOver gallopOutcome = iota
	gallopExhausted
	gallopAbort
)

// srcBlock is one block-decoder→merger hand-off: a validated view
// tagged with its source. A nil view is the end-of-source marker.
type srcBlock struct {
	src  int
	view *blockView
}

// blockCursor is one source's position in the merge: the view being
// consumed and the index of its next record. Exhaustion lives in the
// tree's keys, not here.
type blockCursor struct {
	view *blockView
	idx  int
	src  int
}

// blockLoserTree is the tournament over k block cursors. A loser tree
// replays exactly one match per level — ⌈log2 k⌉ comparisons per edge,
// where a binary heap's sift pays ~2·log2(k). node[1:k] holds the losers
// of the internal matches in the standard implicit layout — leaf i at
// index k+i, the parent of index n at n/2 — and node[0] the overall
// winner's source; the layout is a valid tournament for any k ≥ 1. Keys
// are parallel arrays — ts[i] is source i's head timestamp and rank[i]
// its tie-break — so a replay touches flat int64/int arrays with no
// cursor pointer chasing. A live source's rank is its index; exhausting
// source i sets (ts, rank) = (MaxInt64, k+i), which loses to every live
// key — a live head at MaxInt64 included, since its rank stays below
// k — and orders done sources among themselves by index, which keeps
// the order total.
type blockLoserTree struct {
	ts     []int64
	rank   []int
	node   []int
	k      int
	active int
}

func (t *blockLoserTree) beat(a, b int) bool {
	return t.ts[a] < t.ts[b] || (t.ts[a] == t.ts[b] && t.rank[a] < t.rank[b])
}

// build plays the subtree rooted at internal node n bottom-up,
// recording each match's loser, and returns the subtree's winner.
func (t *blockLoserTree) build(n int) int {
	if n >= t.k {
		return n - t.k
	}
	a, b := t.build(2*n), t.build(2*n+1)
	if t.beat(a, b) {
		t.node[n] = b
		return a
	}
	t.node[n] = a
	return b
}

// replay re-runs the winner's root path after its key changed.
func (t *blockLoserTree) replay() {
	w := t.node[0]
	for n := (t.k + w) / 2; n >= 1; n /= 2 {
		if t.beat(t.node[n], w) {
			t.node[n], w = w, t.node[n]
		}
	}
	t.node[0] = w
}

// exhaust eliminates source i from the tournament.
func (t *blockLoserTree) exhaust(i int) {
	t.ts[i], t.rank[i] = math.MaxInt64, t.k+i
	t.active--
	t.replay()
}

// limit returns the runner-up key the winner must keep beating to skip
// replays. The second-best source always lost its one match directly to
// the champion, so it sits on the champion's root path; the minimum
// over those path losers, seeded with the (MaxInt64, k) sentinel, is
// the runner-up. The sentinel also absorbs done keys (rank ≥ k never
// beats it) and comes back when no live challenger remains, so every
// live record beats it — ties at MaxInt64 included.
func (t *blockLoserTree) limit() (int64, int) {
	w := t.node[0]
	bestTS, bestRank := int64(math.MaxInt64), t.k
	for n := (t.k + w) / 2; n >= 1; n /= 2 {
		l := t.node[n]
		if t.ts[l] < bestTS || (t.ts[l] == bestTS && t.rank[l] < bestRank) {
			bestTS, bestRank = t.ts[l], t.rank[l]
		}
	}
	return bestTS, bestRank
}

// asBlockSource returns src itself when it hands over v2 blocks, and
// src wrapped in the fill adapter, filling blocks of up to records
// edges, otherwise.
func asBlockSource(src TimestampedSource, records int) blockSource {
	if bs, ok := src.(blockSource); ok {
		return bs
	}
	return &filledBlockSource{fill: tsSourceFill(src), scratch: make([]TimestampedEdge, records)}
}

// filledBlockSource adapts any TimestampedSource to the block merge:
// each view is a pooled buffer of v1-layout records filled through the
// source's FillTimestamped (per-edge NextTimestamped otherwise), with
// maxTS computed over exactly the records it holds.
type filledBlockSource struct {
	fill    func([]TimestampedEdge) (int, error)
	scratch []TimestampedEdge
	err     error // the fill error held back behind the records decoded before it
}

// nextBlockView fills the next view. A fill error that arrives with
// records is held back until those records have been handed over, then
// returned exactly once — a RecordError is charged by
// nextBudgetedView, and the next call resumes past the bad record.
func (s *filledBlockSource) nextBlockView() (*blockView, error) {
	if err := s.err; err != nil {
		s.err = nil
		return nil, err
	}
	n, err := s.fill(s.scratch)
	for n == 0 && err == nil {
		n, err = s.fill(s.scratch)
	}
	if n == 0 {
		return nil, err
	}
	s.err = err
	buf := getBlockBuf(16 * n)
	maxTS := s.scratch[0].TS
	for i, e := range s.scratch[:n] {
		rec := buf[16*i : 16*i+16]
		binary.LittleEndian.PutUint32(rec[0:4], e.E.U)
		binary.LittleEndian.PutUint32(rec[4:8], e.E.V)
		binary.LittleEndian.PutUint64(rec[8:16], uint64(e.TS))
		maxTS = max(maxTS, e.TS)
	}
	v := &blockView{data: buf, buf: buf, count: n, maxTS: maxTS}
	v.refs.Store(1)
	return v, nil
}

// decodeBlocks is one source's decoder goroutine: it pulls views from
// the source, applies the per-source decode-error budget, and hands
// each view to the merger through the credit-gated hand-off. A clean
// EOF sends the nil-view marker — the merger's signal that this source
// is exhausted; an error shuts the whole pipeline down
// (first-error-wins), named by source index. Edges, blocks, and decode
// time are counted per source here; the aggregate counts merged
// deliveries at the merger.
func (p *OrderedMultiPipeline) decodeBlocks(i int, src blockSource) {
	defer p.wg.Done()
	fail := func(err error) {
		if err != errPipelineClosed && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("source %d: %w", i, err)
		}
		p.fail(err)
	}
	for {
		v, err := p.nextBudgetedView(i, src)
		if err == io.EOF {
			// Clean end; the marker carries no view, so no credit is
			// needed (the hand-off ring reserves a slot for it).
			sendOrQuit(p.ctx, p.quit, p.blockHandoff, srcBlock{src: i}, fail)
			return
		}
		if err != nil {
			fail(err)
			return
		}
		p.perSource[i].edges.Add(uint64(v.count))
		p.perSource[i].batches.Add(1)
		if _, ok := recvOrQuit(p.ctx, p.quit, p.credits[i], fail); !ok {
			v.release()
			return
		}
		if !sendOrQuit(p.ctx, p.quit, p.blockHandoff, srcBlock{src: i, view: v}, fail) {
			v.release()
			return
		}
	}
}

// nextBudgetedView is budgetedFill over views: each skippable
// RecordError the source returns — a malformed record from an adapted
// source, a damaged or truncated block from a v2 reader (one charge
// however many records it carried; the reader has already resynced at
// the next header) — is counted and sampled against the per-source
// budget with budgetedFill's exceeded message; with no budget the first
// failure is terminal.
func (p *OrderedMultiPipeline) nextBudgetedView(i int, src blockSource) (*blockView, error) {
	prog := &p.perSource[i]
	for {
		start := time.Now()
		v, err := src.nextBlockView()
		prog.decodeNs.Add(time.Since(start).Nanoseconds())
		if err == nil || err == io.EOF {
			return v, err
		}
		var rec *RecordError
		if p.cfg.maxBadRecords <= 0 || !errors.As(err, &rec) {
			return nil, err
		}
		bad := prog.badRecords.Add(1)
		prog.addBadSample(err.Error())
		if bad > uint64(p.cfg.maxBadRecords) {
			return nil, fmt.Errorf("stream: decode-error budget exceeded: %d malformed records over budget %d: %w (samples: %s)",
				bad, p.cfg.maxBadRecords, err, strings.Join(prog.badSampleSnapshot(), " | "))
		}
	}
}

// nextView returns source i's next view, in source order. ok is false
// when the source is cleanly exhausted; abort is true when the pipeline
// is shutting down (error, cancellation, or Close). Views for other
// sources encountered while draining the hand-off ring park in their
// pending boxes (bounded by the credit budget) until their source's
// turn comes.
func (p *OrderedMultiPipeline) nextView(i int) (v *blockView, ok, abort bool) {
	for {
		if q := p.pendingViews[i]; len(q) > 0 {
			v = q[0]
			copy(q, q[1:])
			q[len(q)-1] = nil
			p.pendingViews[i] = q[:len(q)-1]
			return v, true, false
		}
		if p.eof[i] {
			return nil, false, false
		}
		m, open := recvOrQuit(p.ctx, p.quit, p.blockHandoff, p.fail)
		if !open {
			return nil, false, true
		}
		if m.view == nil {
			p.eof[m.src] = true
		} else {
			p.pendingViews[m.src] = append(p.pendingViews[m.src], m.view)
		}
	}
}

// blockRefill releases the cursor's spent view (returning its buffer to
// the pool once the last holder lets go), credits the decoder, and
// installs the source's next view. more is false when the source is
// cleanly exhausted; abort is true on shutdown.
func (p *OrderedMultiPipeline) blockRefill(c *blockCursor) (more, abort bool) {
	c.view.release()
	c.view = nil
	p.credits[c.src] <- struct{}{}
	v, more, abort := p.nextView(c.src)
	if more {
		c.view, c.idx = v, 0
	}
	return more, abort
}

// emitViewRange copies records [lo, hi) of v into output buffers,
// delivering each as it fills — the zero-comparison block copy at the
// heart of the block gallop. The returned buffer is never full.
func (p *OrderedMultiPipeline) emitViewRange(v *blockView, lo, hi int, cur []graph.Edge) ([]graph.Edge, bool) {
	for i := lo; i < hi; {
		n := cap(cur) - len(cur)
		if n > hi-i {
			n = hi - i
		}
		for j := 0; j < n; j++ {
			cur = append(cur, v.edge(i+j))
		}
		i += n
		if len(cur) == cap(cur) {
			if !p.deliver(cur) {
				return nil, false
			}
			var ok bool
			if cur, ok = p.acquireOut(); !ok {
				return nil, false
			}
		}
	}
	return cur, true
}

// mergeBlocks is the merger goroutine: it primes one view per source,
// builds the flat-key loser tree, then merges in one of two modes.
// Per-edge mode emits the winner and replays. Once the same source wins
// gallopAfter consecutive replays, gallop mode engages: the runner-up
// key is computed once and gallopBlockRun copies the rest of the
// winner's run — whole blocks where the bounds allow — across block
// boundaries, until the run ends and the tournament resumes. Exhausted
// sources leave the tournament.
func (p *OrderedMultiPipeline) mergeBlocks() {
	defer p.wg.Done()
	k := len(p.perSource)
	cursors := make([]blockCursor, k)
	t := &blockLoserTree{ts: make([]int64, k), rank: make([]int, k), node: make([]int, k), k: k}
	for i := range cursors {
		cursors[i].src = i
		v, ok, abort := p.nextView(i)
		if abort {
			return
		}
		if ok {
			cursors[i].view = v
			t.ts[i], t.rank[i] = v.ts(0), i
			t.active++
		} else {
			t.ts[i], t.rank[i] = math.MaxInt64, k+i
		}
	}
	cur, ok := p.acquireOut()
	if !ok {
		return
	}
	if k == 1 {
		t.node[0] = 0
	} else {
		t.node[0] = t.build(1)
	}
	// Every iteration ends in one replay or exhaust. The count stays in
	// a local until the merger exits, so the per-edge increment never
	// touches the cache line the decoders read p's channels from.
	replays, streak := 0, 0
	defer func() { p.replays = replays }()
	for t.active > 0 {
		replays++
		w := t.node[0]
		c := &cursors[w]
		if streak >= gallopAfter {
			limitTS, limitRank := t.limit()
			var outcome gallopOutcome
			if cur, outcome = p.gallopBlockRun(c, limitTS, limitRank, cur); outcome == gallopAbort {
				return
			}
			if outcome == gallopExhausted {
				t.exhaust(w)
			} else {
				t.ts[w] = c.view.ts(c.idx)
				t.replay()
			}
			streak = 0
			continue
		}
		// Per-edge tournament mode, straight off the raw records.
		cur = append(cur, c.view.edge(c.idx))
		c.idx++
		if len(cur) == cap(cur) {
			if !p.deliver(cur) {
				return
			}
			if cur, ok = p.acquireOut(); !ok {
				return
			}
		}
		if c.idx == c.view.count {
			more, abort := p.blockRefill(c)
			if abort {
				return
			}
			if !more {
				t.exhaust(w)
				streak = 0
				continue
			}
		}
		t.ts[w] = c.view.ts(c.idx)
		t.replay()
		if t.node[0] == w {
			streak++
		} else {
			streak = 0
		}
	}
	if len(cur) > 0 {
		p.deliver(cur)
	}
}

// gallopBlockRun is the gallop inner loop: copy c's run — every
// consecutive record that beats the (limitTS, limitRank) runner-up key —
// into output buffers, crossing block boundaries while the run survives.
// Two gears: when the view's max timestamp itself beats the limit, the
// whole remaining block is copied with zero per-record comparisons (the
// bound proves every record wins its tournament); otherwise the run
// continues record-by-record under maxTSAgainst's bound until a record
// no longer beats the runner-up. The scan is a plain prefix walk, not a
// binary search, because sources need not be timestamp-sorted. The
// caller owns the tournament consequences; the returned buffer is nil
// after gallopAbort and never full otherwise.
func (p *OrderedMultiPipeline) gallopBlockRun(c *blockCursor, limitTS int64, limitRank int, cur []graph.Edge) ([]graph.Edge, gallopOutcome) {
	for {
		if boundsBeat(c.view.maxTS, c.src, limitTS, limitRank) {
			// Block gear: everything left in the view precedes the
			// runner-up. The limit stays fixed across refills — the
			// runner-up cannot move while the champion emits — so fresh
			// blocks re-test against the same key.
			var ok bool
			if cur, ok = p.emitViewRange(c.view, c.idx, c.view.count, cur); !ok {
				return nil, gallopAbort
			}
			c.idx = c.view.count
		} else {
			// Edge gear: prefix walk bounded by the runner-up key,
			// exactly runLen's bound.
			maxTS, possible := maxTSAgainst(limitTS, limitRank, c.src)
			if !possible {
				return cur, gallopRunOver
			}
			v := c.view
			for c.idx < v.count && v.ts(c.idx) <= maxTS {
				cur = append(cur, v.edge(c.idx))
				c.idx++
				if len(cur) == cap(cur) {
					if !p.deliver(cur) {
						return nil, gallopAbort
					}
					var ok bool
					if cur, ok = p.acquireOut(); !ok {
						return nil, gallopAbort
					}
				}
			}
			if c.idx < v.count {
				return cur, gallopRunOver // the next record no longer beats the runner-up
			}
			more, abort := p.blockRefill(c)
			if abort {
				return nil, gallopAbort
			}
			if !more {
				return cur, gallopExhausted
			}
			if c.view.ts(0) > maxTS {
				return cur, gallopRunOver // the run dies at the block boundary
			}
			continue
		}
		more, abort := p.blockRefill(c)
		if abort {
			return nil, gallopAbort
		}
		if !more {
			return cur, gallopExhausted
		}
	}
}
