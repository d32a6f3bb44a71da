package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"streamtri/internal/gen"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

// TestShardedMatchesUnshardedDistribution: a counter restored from a
// four-shard checkpoint taken after the first batch holds all 8,000
// estimators and, fed the rest of the stream, estimates within the
// flat counter's accuracy band.
func TestShardedMatchesUnshardedDistribution(t *testing.T) {
	edges := stream.Shuffle(gen.Syn3RegPaper(), randx.New(1))
	s := newShardSet(8000, 4, 2)
	s.AddBatch(edges[:1024])
	sc := s.convert(t)
	for lo := 1024; lo < len(edges); lo += 1024 {
		hi := lo + 1024
		if hi > len(edges) {
			hi = len(edges)
		}
		sc.AddBatch(edges[lo:hi])
	}
	if sc.Edges() != 3000 {
		t.Fatalf("Edges = %d", sc.Edges())
	}
	if sc.NumEstimators() != 8000 {
		t.Fatalf("NumEstimators = %d", sc.NumEstimators())
	}
	got := sc.EstimateTriangles()
	if math.Abs(got-1000) > 200 {
		t.Fatalf("sharded estimate = %v, want 1000 ± 200", got)
	}
	if k := sc.EstimateTransitivity(); math.Abs(k-0.5) > 0.12 {
		t.Fatalf("sharded κ̂ = %v", k)
	}
	if mom := sc.EstimateTrianglesMedianOfMeans(8); math.Abs(mom-1000) > 250 {
		t.Fatalf("sharded MoM = %v", mom)
	}
}

// TestShardedUnevenSplit: a checkpoint of shards of 4, 3 and 3
// estimators restores as one counter of 10, holding the shards'
// estimators in shard order.
func TestShardedUnevenSplit(t *testing.T) {
	s := newShardSet(10, 3, 3)
	s.AddBatch(gen.Complete(6))
	sc := s.convert(t)
	if sc.NumEstimators() != 10 {
		t.Fatalf("NumEstimators = %d", sc.NumEstimators())
	}
	sizes := map[int]int{}
	var want []Estimator
	for _, sh := range s {
		sizes[sh.NumEstimators()]++
		want = append(want, sh.ests...)
	}
	if sizes[4] != 1 || sizes[3] != 2 {
		t.Fatalf("shard sizes = %v", sizes)
	}
	if !slices.Equal(sc.ests, want) {
		t.Fatal("restored estimators are not the shards' in shard order")
	}
}

func TestShardedDeterministicAcrossRuns(t *testing.T) {
	edges := stream.Shuffle(gen.Syn3Reg(10, 5), randx.New(4))
	runOnce := func() float64 {
		s := newShardSet(600, 3, 7)
		s.AddBatch(edges[:len(edges)/2])
		sc := s.convert(t)
		sc.AddBatch(edges[len(edges)/2:])
		return sc.EstimateTriangles()
	}
	if runOnce() != runOnce() {
		t.Fatal("a counter restored from shards is not deterministic")
	}
}

// TestShardedSequentialAdd: a counter restored from a fresh two-shard
// checkpoint takes Add, edge by edge.
func TestShardedSequentialAdd(t *testing.T) {
	edges := gen.Cycle(3)
	sc := newShardSet(50, 2, 5).convert(t)
	for _, e := range edges {
		sc.Add(e)
	}
	if sc.Edges() != 3 {
		t.Fatalf("Edges = %d", sc.Edges())
	}
	// One triangle; some estimators must have found it.
	if sc.EstimateTriangles() <= 0 {
		t.Fatal("triangle missed by all shards on K3")
	}
}

// TestShardedPanicsOnBadParams: the sharded constructor panicked on
// r = 5, p = 0 and on r = 2, p = 3 (a shard without estimators). The
// shard count now lives only in checkpoints, and their reader rejects
// both shapes with an error instead.
func TestShardedPanicsOnBadParams(t *testing.T) {
	blob := func(r int) []byte {
		if r > 0 {
			return encodeState(t, NewCounter(r, 1))
		}
		b := encodeState(t, NewCounter(1, 1))
		binary.LittleEndian.PutUint64(b[8:16], 0)
		return b[:len(b)-recordLen]
	}
	for _, tc := range []struct{ r, p int }{{5, 0}, {2, 3}} {
		var blobs [][]byte
		for i := 0; i < tc.p; i++ {
			blobs = append(blobs, blob(tc.r/tc.p+btoi(i < tc.r%tc.p)))
		}
		if _, err := ReadCounterFrom(bytes.NewReader(shardEnvelope(uint32(tc.p), 0, blobs...))); err == nil {
			t.Fatalf("r=%d p=%d: checkpoint accepted", tc.r, tc.p)
		}
	}
}

// btoi is 1 for true and 0 for false.
func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestSerializeRoundTrip(t *testing.T) {
	edges := stream.Shuffle(gen.Syn3RegPaper(), randx.New(5))
	c := NewCounter(500, 6)
	c.AddBatch(edges[:1500])

	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadCounterFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Edges() != c.Edges() || restored.NumEstimators() != c.NumEstimators() {
		t.Fatal("restored metadata differs")
	}
	if restored.EstimateTriangles() != c.EstimateTriangles() {
		t.Fatal("restored estimate differs")
	}

	// Continue both on the remaining stream: they must stay identical.
	c.AddBatch(edges[1500:])
	restored.AddBatch(edges[1500:])
	if restored.EstimateTriangles() != c.EstimateTriangles() {
		t.Fatal("post-restore continuation diverged")
	}
	if restored.EstimateWedges() != c.EstimateWedges() {
		t.Fatal("post-restore wedge estimate diverged")
	}
	// Deterministic invariant check of the restored run.
	checkStateInvariants(t, edges, restored)
}

// TestSerializeIntoSpareCapacity checks that WriteTo builds its blob in
// the spare capacity of a destination with room for it, after the bytes
// it already holds: the same bytes, and no allocation.
func TestSerializeIntoSpareCapacity(t *testing.T) {
	edges := stream.Shuffle(gen.Syn3RegPaper(), randx.New(5))
	c := NewCounter(500, 6)
	c.AddBatch(edges[:1500])
	var want bytes.Buffer
	if _, err := c.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Grow(len("head") + want.Len())
	buf.WriteString("head")
	allocs := testing.AllocsPerRun(20, func() {
		buf.Truncate(len("head"))
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if got := buf.Bytes(); string(got[:4]) != "head" || !bytes.Equal(got[4:], want.Bytes()) {
		t.Fatal("WriteTo into spare capacity wrote different bytes")
	}
	if allocs > 0 {
		t.Errorf("WriteTo into a buffer with room made %v allocations, want none", allocs)
	}
}

func TestSerializeCheckpointEqualsUninterrupted(t *testing.T) {
	// Checkpoint/restore mid-stream must equal an uninterrupted run with
	// the same seed and batching.
	edges := stream.Shuffle(gen.HolmeKim(randx.New(7), 200, 3, 0.6), randx.New(8))
	const w = 64

	straight := NewCounter(300, 9)
	interrupted := NewCounter(300, 9)
	for lo := 0; lo < len(edges); lo += w {
		hi := lo + w
		if hi > len(edges) {
			hi = len(edges)
		}
		straight.AddBatch(edges[lo:hi])
		interrupted.AddBatch(edges[lo:hi])
		// Round-trip the interrupted counter through bytes every batch.
		var buf bytes.Buffer
		if _, err := interrupted.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		var err error
		interrupted, err = ReadCounterFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	if straight.EstimateTriangles() != interrupted.EstimateTriangles() {
		t.Fatal("checkpointed run diverged from straight run")
	}
}

func TestSerializeErrors(t *testing.T) {
	if _, err := ReadCounterFrom(strings.NewReader("")); err == nil {
		t.Fatal("empty input must error")
	}
	if _, err := ReadCounterFrom(strings.NewReader("XXXXGARBAGEGARBAGE")); err == nil {
		t.Fatal("bad magic must error")
	}
	// Truncated payload.
	c := NewCounter(10, 1)
	c.Add(gen.Cycle(3)[0])
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadCounterFrom(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated input must error")
	}
}

// TestSerializeRejectsImpossibleRecords: the decoder refuses, and names
// the field of, every estimator record no stream of m edges produces, so
// that recovery falls back to an older generation instead of handing
// AddBatch a state it cannot absorb. The boundary values are accepted.
func TestSerializeRejectsImpossibleRecords(t *testing.T) {
	edges := gen.Complete(8)
	cases := []struct {
		name   string
		damage func(est *Estimator, c *Counter)
		field  string // "" = accepted
	}{
		{"hasR2 without hasR1", func(est *Estimator, _ *Counter) { est.r2PosFlags &^= flagR1 }, "hasR2"},
		{"hasT without hasR2", func(est *Estimator, _ *Counter) { est.r2PosFlags = est.r2PosFlags&^flagR2 | flagT }, "hasT"},
		{"r1Pos zero", func(est *Estimator, _ *Counter) { est.r1Pos = 0 }, "r1Pos"},
		{"r1Pos beyond m", func(est *Estimator, c *Counter) { est.r1Pos = c.m + 1 }, "r1Pos"},
		{"r1Pos at m", func(est *Estimator, c *Counter) { est.r1Pos = c.m }, ""},
		{"r2Pos beyond m", func(est *Estimator, c *Counter) { est.r2PosFlags = est.r2PosFlags&^r2PosMask | (c.m + 1) }, "r2Pos"},
		{"r2Pos before r1Pos", func(est *Estimator, _ *Counter) { est.r2PosFlags = est.r2PosFlags&^r2PosMask | (est.r1Pos - 1) }, ""},
		{"c beyond 4m", func(est *Estimator, c *Counter) { est.c = 4*c.m + 1 }, "c "},
		{"c at 4m", func(est *Estimator, c *Counter) { est.c = 4 * c.m }, ""},
		{"c = 2^64-1", func(est *Estimator, _ *Counter) { est.c = 1<<64 - 1 }, "c "},
		{"m beyond 2^60", func(est *Estimator, c *Counter) { c.m = maxEdges + 1 }, "edge count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCounter(3, 5)
			c.AddBatch(edges)
			est := &c.ests[1]
			if !est.hasR2() || est.r1Pos < 2 {
				t.Fatalf("setup: estimator holds %+v, want a wedge with r1Pos ≥ 2", *est)
			}
			tc.damage(est, c)
			_, err := ReadCounterFrom(bytes.NewReader(encodeState(t, c)))
			switch {
			case tc.field == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.field != "" && err == nil:
				t.Fatal("accepted")
			case tc.field != "" && !strings.Contains(err.Error(), tc.field):
				t.Fatalf("error %q does not name %q", err, tc.field)
			}
		})
	}
}

// TestSerializeR2PosBound: an Estimator keeps its three flags in the
// top bits of r2's position, so the decoder rejects a recorded r2Pos
// above 2^61 − 1, which no writer produces. A stale one (hasR2 clear,
// so no bound in m applies) at 2^61 − 1 restores, with its flags, and
// encodes back to the same bytes.
func TestSerializeR2PosBound(t *testing.T) {
	c := NewCounter(3, 5)
	c.AddBatch(gen.Complete(8))
	c.ests[1].r2PosFlags &^= flagR2 | flagT
	blob := encodeState(t, c)
	rec := blob[len(blob)-2*recordLen:] // estimator 1's record
	for _, pos := range []uint64{r2PosMask, r2PosMask + 1, 1<<64 - 1} {
		binary.LittleEndian.PutUint64(rec[24:], pos)
		got, err := ReadCounterFrom(bytes.NewReader(blob))
		if pos > r2PosMask {
			if err == nil || !strings.Contains(err.Error(), "r2Pos") {
				t.Fatalf("r2Pos %d: err = %v, want a rejection naming r2Pos", pos, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("r2Pos %d: %v", pos, err)
		}
		if est := &got.ests[1]; est.r2Pos() != pos || !est.hasR1() || est.hasR2() || est.hasT() {
			t.Fatalf("r2Pos %d restored as %d (hasR1 %v, hasR2 %v, hasT %v)", pos, est.r2Pos(), est.hasR1(), est.hasR2(), est.hasT())
		}
		if !bytes.Equal(encodeState(t, got), blob) {
			t.Fatalf("r2Pos %d: the restored counter encodes to other bytes", pos)
		}
	}
}

// TestSerializeAcceptsSelfLoopCounts: a stream of self loops on one
// vertex is outside the simple-stream contract, but AddBatch accepts it
// and each loop after r1 raises c by 4. Such states exceed c ≤ 2m and
// must still restore, which is why the decoder's bound is 4m.
func TestSerializeAcceptsSelfLoopCounts(t *testing.T) {
	c := NewCounter(64, 9)
	loop := []graph.Edge{{U: 1, V: 1}}
	for range 40 {
		c.AddBatch(loop)
	}
	over := 0
	for i := range c.ests {
		if c.ests[i].c > 2*c.m {
			over++
		}
	}
	if over == 0 {
		t.Fatal("no estimator exceeds c = 2m; the 4m bound is untested")
	}
	restored, err := ReadCounterFrom(bytes.NewReader(encodeState(t, c)))
	if err != nil {
		t.Fatalf("%d estimators with c > 2m: %v", over, err)
	}
	if !bytes.Equal(encodeState(t, restored), encodeState(t, c)) {
		t.Fatal("restored state re-encodes differently")
	}
}
