package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"streamtri/internal/gen"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

// TestFlatDeterministicAcrossRuns replaces the retired map-path oracle
// (the map-based AddBatch was removed once its deprecation clock ran
// out): the bulk path must remain fully deterministic seed-for-seed —
// two counters fed identical batches stay in identical states after
// every batch, across stream shapes, batch sizes, and both Step-1
// variants.
func TestFlatDeterministicAcrossRuns(t *testing.T) {
	for name, edges := range testStreams(41) {
		for _, w := range []int{1, 3, 16, 128, 1 << 20} {
			for _, skip := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/w=%d/skip=%v", name, w, skip), func(t *testing.T) {
					var opts []Option
					if !skip {
						opts = append(opts, WithoutLevel1Skip())
					}
					a := NewCounter(300, 77, opts...)
					b := NewCounter(300, 77, opts...)
					for lo := 0; lo < len(edges); lo += w {
						hi := min(lo+w, len(edges))
						a.AddBatch(edges[lo:hi])
						b.AddBatch(edges[lo:hi])
						if a.m != b.m {
							t.Fatalf("m diverged after batch at %d: %d vs %d", lo, a.m, b.m)
						}
						if !reflect.DeepEqual(a.ests, b.ests) {
							t.Fatalf("estimator states diverged after batch at %d", lo)
						}
					}
					checkStateInvariants(t, edges, a)
				})
			}
		}
	}
}

// TestFlatStateInvariantsLargeBatch exercises the batch index on one
// batch far larger than r, and far larger than the tables' initial
// sizes, and checks the exact structural invariants.
func TestFlatStateInvariantsLargeBatch(t *testing.T) {
	rng := randx.New(9)
	edges := stream.Shuffle(gen.HolmeKim(rng, 3000, 4, 0.6), rng)
	c := NewCounter(400, 5)
	c.AddBatch(edges) // one giant batch: w ≫ r
	checkStateInvariants(t, edges, c)
}

// TestFlatReusedAcrossShrinkingBatches verifies epoch-stamped reuse: a
// large batch followed by much smaller ones must not let stale table
// state leak between batches.
func TestFlatReusedAcrossShrinkingBatches(t *testing.T) {
	rng := randx.New(11)
	edges := stream.Shuffle(gen.HolmeKim(rng, 800, 3, 0.7), rng)
	c := NewCounter(250, 3)
	c.AddBatch(edges[:1500])
	for lo := 1500; lo < len(edges); lo += 7 {
		c.AddBatch(edges[lo:min(lo+7, len(edges))])
	}
	checkStateInvariants(t, edges, c)
}

// TestAddBatchZeroAllocsSteadyState is the allocation guard of the
// rewrite: once the scratch tables have warmed up, the only thing
// Counter.AddBatch may allocate is the one fixed-size estimate snapshot
// it publishes for concurrent readers — no per-edge or per-table
// allocations.
func TestAddBatchZeroAllocsSteadyState(t *testing.T) {
	const r, w, batches = 256, 2048, 24
	rng := randx.New(13)
	edges := stream.Shuffle(gen.HolmeKim(rng, w*batches/4, 2, 0.5), rng)
	for len(edges) < w*batches {
		edges = append(edges, edges[:min(w, w*batches-len(edges))]...)
	}
	c := NewCounter(r, 17)
	// Warm up: one full cycle sizes every table for the vertex universe.
	for i := 0; i < batches; i++ {
		c.AddBatch(edges[i*w : (i+1)*w])
	}
	i := 0
	before := c.idx.build
	avg := testing.AllocsPerRun(batches-1, func() {
		c.AddBatch(edges[i*w : (i+1)*w])
		i = (i + 1) % batches
	})
	if avg > 1 {
		t.Fatalf("Counter.AddBatch allocates %.2f allocs/op at steady state, want <= 1 (the published snapshot)", avg)
	}
	// AllocsPerRun makes one unmeasured run first, so two rebuilds put
	// at least one inside the measured runs.
	if n := c.idx.build - before; n < 2 {
		t.Fatalf("the batch index rebuilt %d times during the runs, want at least 2", n)
	}
}

// TestShardedAddBatchZeroAllocsSteadyState: a counter restored from a
// four-shard checkpoint is a Counter like any other, so its AddBatch
// must reach the same steady state, where the only allocation is the
// one snapshot published for concurrent readers.
func TestShardedAddBatchZeroAllocsSteadyState(t *testing.T) {
	const r, p, w, batches = 256, 4, 2048, 16
	rng := randx.New(19)
	edges := stream.Shuffle(gen.HolmeKim(rng, w*batches/4, 2, 0.5), rng)
	for len(edges) < w*batches {
		edges = append(edges, edges[:min(w, w*batches-len(edges))]...)
	}
	shards := newShardSet(r, p, 23)
	shards.AddBatch(edges[:w])
	sc := shards.convert(t)
	for i := 1; i < batches; i++ {
		sc.AddBatch(edges[i*w : (i+1)*w])
	}
	i := 0
	before := sc.idx.build
	avg := testing.AllocsPerRun(batches-1, func() {
		sc.AddBatch(edges[i*w : (i+1)*w])
		i = (i + 1) % batches
	})
	if avg > 1 {
		t.Fatalf("AddBatch after a restore from shards allocates %.2f allocs/op at steady state, want <= 1 (the published snapshot)", avg)
	}
	if n := sc.idx.build - before; n < 2 {
		t.Fatalf("the batch index rebuilt %d times during the runs, want at least 2", n)
	}
}

// TestBatchIndexRebuildTriggers drives the kept batch index through
// every reason to rebuild it: the first batch, a batch with many
// adoptions (m small, w ≫ m), keys piling up past the bound over small
// batches, an Add between batches and a restore, on a flat counter and
// on one restored from a fresh three-shard checkpoint, whose estimators
// and RNG come from the shards. After every
// batch the states must equal those of a twin restored from its
// checkpoint before each batch, whose index is therefore built afresh
// every time, and the state and index invariants must hold. r is small
// against the graph's 1,000 vertices, so keys left to pile up past the
// bound would outgrow the table.
func TestBatchIndexRebuildTriggers(t *testing.T) {
	edges := stream.Shuffle(gen.HolmeKim(randx.New(61), 1000, 3, 0.6), randx.New(62))
	const r = 16
	for _, k := range []goldenKind{{"flat", 0, nil}, {"sharded-p3", 3, nil}} {
		t.Run(k.name, func(t *testing.T) {
			newCounter := func() *Counter {
				if k.p == 0 {
					return NewCounter(r, 5)
				}
				return newShardSet(r, k.p, 5).convert(t)
			}
			c, twin := newCounter(), newCounter()
			lo := 0
			// feed adds the next w edges to both counters and reports
			// whether c's index was rebuilt.
			feed := func(w int) bool {
				t.Helper()
				before := c.idx.build
				batch := edges[lo : lo+w]
				lo += w
				c.AddBatch(batch)
				twin = restoreState(t, twin).(*Counter)
				twin.AddBatch(batch)
				if !bytes.Equal(encodeState(t, c), encodeState(t, twin)) {
					t.Fatalf("after edge %d: state differs from the twin's, whose index was rebuilt", lo)
				}
				checkStateInvariants(t, edges[:lo], c)
				return c.idx.build != before
			}
			if !feed(4) {
				t.Error("the first batch did not build the index")
			}
			if !feed(296) {
				t.Error("a batch with many adoptions did not rebuild the index")
			}
			kept, rebuilt := 0, 0
			for range 40 {
				if feed(8) {
					rebuilt++
				} else {
					kept++
				}
			}
			if kept == 0 || rebuilt == 0 {
				t.Errorf("over 40 small batches the index was kept %d times and rebuilt %d times; want both", kept, rebuilt)
			}
			c.Add(edges[lo])
			twin.Add(edges[lo])
			lo++
			if !feed(8) {
				t.Error("the batch after an Add did not rebuild the index")
			}
			c = restoreState(t, c).(*Counter)
			if !feed(8) {
				t.Error("the first batch after a restore did not build the index")
			}
			feed(len(edges) - lo)
		})
	}
}

// restoreState returns the counter c's checkpoint restores as: one
// Counter, also for a shardSet.
func restoreState(t *testing.T, c goldenCounter) goldenCounter {
	t.Helper()
	restored, err := ReadCounterFrom(bytes.NewReader(encodeState(t, c)))
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// --- interner unit tests ------------------------------------------------

func TestInternerDenseIdsAndEpochReuse(t *testing.T) {
	var in interner
	in.begin(4)
	ids := map[graph.NodeID]uint32{}
	for i, v := range []graph.NodeID{10, 500, 10, 7, 500, 7, 42} {
		id := in.intern(v)
		if want, seen := ids[v]; seen {
			if id != want {
				t.Fatalf("step %d: intern(%d) = %d, want stable %d", i, v, id, want)
			}
			continue
		}
		if int(id) != len(ids) {
			t.Fatalf("step %d: intern(%d) = %d, want dense %d", i, v, id, len(ids))
		}
		ids[v] = id
	}
	if in.size != 4 {
		t.Fatalf("size = %d, want 4", in.size)
	}
	if _, ok := in.lookupHashed(999, hash32(999)); ok {
		t.Fatal("lookup of unseen vertex succeeded")
	}
	// begin again: all previous keys must be forgotten, ids restart at 0.
	in.begin(4)
	if _, ok := in.lookupHashed(10, hash32(10)); ok {
		t.Fatal("stale key survived epoch bump")
	}
	if id := in.intern(7); id != 0 {
		t.Fatalf("first id of new epoch = %d, want 0", id)
	}
}

func TestInternerGrowth(t *testing.T) {
	var in interner
	in.begin(2) // deliberately undersized: force mid-batch growth
	const n = 5000
	for v := graph.NodeID(0); v < n; v++ {
		if id := in.intern(v * 7919); id != uint32(v) {
			t.Fatalf("intern(%d) = %d, want %d", v*7919, id, v)
		}
	}
	for v := graph.NodeID(0); v < n; v++ {
		id, ok := in.lookupHashed(v*7919, hash32(v*7919))
		if !ok || id != uint32(v) {
			t.Fatalf("after growth: lookup(%d) = %d,%v, want %d", v*7919, id, ok, v)
		}
	}
}

// --- pairTable unit tests -----------------------------------------------

func TestPairTableLastIndexAndEpochs(t *testing.T) {
	var tb pairTable
	tb.begin(3000)
	s73 := tb.register(packPair(7, 3))
	if got := tb.register(packPair(3, 7)); got != s73 {
		t.Fatalf("register(3,7) = slot %d, want the slot %d of (7,3)", got, s73)
	}
	sBig := tb.register(packPair(1, 1<<31))
	tb.see(packPair(7, 3), 1)
	tb.see(packPair(3, 7), 2) // same undirected pair: the later position wins
	tb.see(packPair(1<<31, 1), 3)
	tb.see(packPair(3, 8), 4) // not registered: ignored
	if got := tb.last(s73); got != 2 {
		t.Fatalf("last(3,7) = %d, want 2", got)
	}
	if got := tb.last(sBig); got != 3 {
		t.Fatalf("last(1<<31,1) = %d, want 3", got)
	}
	if tb.last(tb.register(packPair(3, 8))) != -1 {
		t.Fatal("absent pair has a position")
	}
	// Fill to the sized capacity (load factor 1/2) and re-check every pair,
	// including the early ones whose probe runs the later keys lengthen.
	slots := make(map[uint32]uint32)
	for k := uint32(100); k < 3096; k++ {
		slots[k] = tb.register(packPair(k, k+1))
	}
	for k := uint32(100); k < 3096; k++ {
		tb.see(packPair(k+1, k), int32(k))
	}
	for k := uint32(100); k < 3096; k++ {
		if got := tb.last(slots[k]); got != int32(k) {
			t.Fatalf("last(%d,%d) = %d, want %d", k+1, k, got, k)
		}
	}
	if got := tb.last(s73); got != 2 {
		t.Fatalf("last(7,3) = %d after filling, want 2", got)
	}
	// A new epoch forgets everything.
	tb.begin(2)
	tb.see(packPair(200, 201), 9)
	if tb.last(tb.register(packPair(3, 7))) != -1 || tb.last(tb.register(packPair(200, 201))) != -1 {
		t.Fatal("stale pairs survived epoch bump")
	}
}
