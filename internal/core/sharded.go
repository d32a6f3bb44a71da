package core

import (
	"fmt"
	"sync/atomic"

	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stats"
)

// ShardedCounter splits r estimators across p independent shards. The
// paper's conclusion observes that neighborhood sampling is amenable to
// parallelization (realized in the authors' follow-up CIKM 2013 paper);
// estimators are mutually independent, so partitioning them preserves the
// exact estimate distribution. p partitions the estimators and is not a
// parallelism setting: it fixes each shard's derived seed, and with it
// the estimates and the NSTS checkpoint, while the shards run one after
// another in the caller's goroutine.
//
// Shards split only the per-estimator work. The batch index — the
// level-1 endpoints of every shard's estimators, kept across batches,
// their batch degrees and occurrence lists, and the closing pairs of the
// open wedges — draws no random number, so the shards share one index
// and AddBatch streams each batch past it once. At steady state AddBatch
// allocates only the p + 1 published snapshots.
//
// All estimates equal the weighted combination of per-shard estimates and
// are deterministic given the seed (shard seeds are derived, and shard
// outputs are combined in shard order).
//
// Concurrency contract: Add, AddBatch, Edges, WriteTo and
// EstimateTrianglesMedianOfMeans belong to a single owner goroutine and
// must not be called concurrently with each other. EstimateTriangles,
// EstimateWedges, EstimateTransitivity and Snapshot are readers: they
// return the snapshot published at the last completed batch boundary
// and are safe to call from any goroutine concurrently with the owner.
type ShardedCounter struct {
	shards []*Counter
	m      uint64
	// idx is the batch index the shards share, kept across batches.
	idx batchIndex

	// snap is the cross-shard estimate snapshot republished by the owner
	// after every completed mutation (see publishCombined).
	snap atomic.Pointer[EstimateSnapshot]
}

// NewShardedCounter returns a counter with r estimators split across p
// shards. r must be >= p; the first r mod p shards get one extra
// estimator.
func NewShardedCounter(r, p int, seed uint64, opts ...Option) *ShardedCounter {
	if p < 1 || r < p {
		panic(fmt.Sprintf("core: NewShardedCounter needs 1 <= p <= r, got r=%d p=%d", r, p))
	}
	sc := &ShardedCounter{shards: make([]*Counter, p)}
	base, extra := r/p, r%p
	for i := range sc.shards {
		n := base
		if i < extra {
			n++
		}
		sc.shards[i] = NewCounter(n, randx.Split(seed, uint64(i)).Uint64N(1<<62)+1, opts...)
	}
	sc.publishCombined()
	return sc
}

// NumEstimators returns the total estimator count across shards.
func (sc *ShardedCounter) NumEstimators() int {
	total := 0
	for _, s := range sc.shards {
		total += s.NumEstimators()
	}
	return total
}

// NumShards returns p.
func (sc *ShardedCounter) NumShards() int { return len(sc.shards) }

// Edges returns the number of edges observed.
func (sc *ShardedCounter) Edges() uint64 { return sc.m }

// AddBatch runs every shard's Step 1, which interns its adopted level-1
// endpoints in the shared batch index, rebuilds the index if it is due,
// streams the batch past it, runs Step 2 shard by shard, settles the
// open wedges and publishes the combined snapshot. Each shard draws from
// its own RNG, so its draws are the ones it would make alone.
func (sc *ShardedCounter) AddBatch(batch []graph.Edge) {
	if len(batch) == 0 {
		return
	}
	absorb(&sc.idx, batch, sc.shards...)
	sc.m += uint64(len(batch))
	sc.publishCombined()
}

// Add processes a single edge on every shard.
func (sc *ShardedCounter) Add(e graph.Edge) {
	for _, s := range sc.shards {
		s.Add(e)
	}
	sc.m++
	sc.publishCombined()
}

// EstimateTriangles returns the estimator-weighted mean across shards —
// identical to the mean over all r estimators. It reads the snapshot
// published at the last completed batch boundary and is safe to call
// concurrently with the owner's ingestion.
func (sc *ShardedCounter) EstimateTriangles() float64 {
	return sc.snap.Load().Triangles()
}

// EstimateWedges returns the estimator-weighted mean wedge estimate,
// snapshot-backed like EstimateTriangles.
func (sc *ShardedCounter) EstimateWedges() float64 {
	return sc.snap.Load().Wedges()
}

// EstimateTransitivity returns κ̂ = 3τ̂/ζ̂. Both quantities come from one
// snapshot, so the ratio is internally consistent under concurrent
// ingest.
func (sc *ShardedCounter) EstimateTransitivity() float64 {
	return sc.snap.Load().Transitivity()
}

// EstimateTrianglesMedianOfMeans pools all per-estimator estimates and
// applies the Theorem 3.4 aggregation.
func (sc *ShardedCounter) EstimateTrianglesMedianOfMeans(groups int) float64 {
	var xs []float64
	for _, s := range sc.shards {
		xs = append(xs, s.TriangleEstimates()...)
	}
	return stats.MedianOfMeans(xs, groups)
}
