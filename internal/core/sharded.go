package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stats"
)

// ShardedCounter splits r estimators across p independent shards and
// processes each batch on a persistent pool of p worker goroutines (one
// per shard, fed by per-shard channels). The paper's conclusion observes
// that the experiments are CPU-bound and that neighborhood sampling is
// amenable to parallelization (realized in the authors' follow-up CIKM
// 2013 paper); this is the natural shared-nothing realization: estimators
// are mutually independent, so partitioning them preserves the exact
// estimate distribution.
//
// Shards split only the per-estimator work. The batch index — interning,
// degrees, occurrence lists and the batch-edge table, the O(w) part of
// Theorem 3.5 — draws no random number, so the owner builds it once per
// batch before the handoff and every shard reads it.
//
// The pool is spawned lazily on the first batch and reused for the
// counter's lifetime, so AddBatch pays a channel handoff per shard rather
// than goroutine spawn + WaitGroup churn per batch, and allocates nothing
// at steady state. AddBatchAsync additionally overlaps shard processing
// with the caller's production of the next batch (double buffering).
//
// All estimates equal the weighted combination of per-shard estimates and
// are deterministic given the seed (shard seeds are derived, and shard
// outputs are combined in shard order).
//
// Concurrency contract: mutation and lifecycle methods (Add, AddBatch,
// AddBatchAsync, Barrier, Close, Edges, WriteTo, TriangleEstimates-style
// raw accessors) belong to a single owner goroutine and must not be
// called concurrently with each other. The Estimate* methods and
// Snapshot are readers: they return the snapshot published at the last
// completed batch boundary without waiting for an in-flight async batch,
// and are safe to call from any goroutine concurrently with the owner.
type ShardedCounter struct {
	shards []*Counter
	m      uint64
	// pending is the size of the one in-flight asynchronous batch
	// (0 when none). m is advanced only after the batch completes, so
	// Edges() and estimator state can never disagree.
	pending uint64
	pool    *shardPool

	// snap is the cross-shard estimate snapshot republished by the owner
	// after every completed mutation (see publishCombined).
	snap atomic.Pointer[EstimateSnapshot]
}

// shardPool is the persistent worker pool: one goroutine per shard,
// blocking on its own work channel, acknowledging each finished batch on
// the shared done channel. Workers reference only the pool and the shard
// counters — never the ShardedCounter — so an abandoned counter's cleanup
// can stop them.
type shardPool struct {
	// idx indexes the batch in flight. The owner builds it before the
	// handoff and rebuilds it only after every worker has acknowledged,
	// so workers read it without locks.
	idx  batchIndex
	work []chan []graph.Edge
	done chan struct{}
	stop sync.Once
}

func newShardPool(shards []*Counter) *shardPool {
	p := &shardPool{
		work: make([]chan []graph.Edge, len(shards)),
		// Buffered acknowledgements: a worker finishing after the owner
		// abandoned the counter must not block forever.
		done: make(chan struct{}, len(shards)),
	}
	for i, s := range shards {
		// Capacity 1 so submit never blocks on a worker that is still
		// parked: the handoff is a buffered write, the ack a buffered
		// read, and at most one batch is ever in flight.
		ch := make(chan []graph.Edge, 1)
		p.work[i] = ch
		go func(c *Counter, ch chan []graph.Edge) {
			for b := range ch {
				c.absorb(b, &p.idx)
				c.publish()
				p.done <- struct{}{}
			}
		}(s, ch)
	}
	return p
}

func (p *shardPool) submit(batch []graph.Edge) {
	p.idx.build(batch)
	for _, ch := range p.work {
		ch <- batch
	}
}

func (p *shardPool) wait() {
	for range p.work {
		<-p.done
	}
}

func (p *shardPool) close() {
	p.stop.Do(func() {
		for _, ch := range p.work {
			close(ch)
		}
	})
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

// ensurePool spawns the worker pool on first use and arranges for the
// workers to be stopped if the counter is garbage-collected without
// Close being called. SetFinalizer (rather than the Go 1.24+ AddCleanup)
// keeps the package building on Go 1.23, the oldest toolchain in the CI
// matrix; the pool never references the ShardedCounter, so the finalizer
// does not keep the counter cycle-alive.
func (sc *ShardedCounter) ensurePool() {
	if sc.pool != nil {
		return
	}
	pool := newShardPool(sc.shards)
	sc.pool = pool
	runtime.SetFinalizer(sc, func(sc *ShardedCounter) { pool.close() })
}

// barrier waits for the in-flight asynchronous batch, if any, advances
// the edge count — the ordering fix that keeps Edges() and estimator
// state consistent — and republishes the combined snapshot so readers
// observe the newly completed batch.
func (sc *ShardedCounter) barrier() {
	if sc.pending == 0 {
		return
	}
	sc.pool.wait()
	sc.m += sc.pending
	sc.pending = 0
	sc.publishCombined()
}

// Barrier blocks until any outstanding asynchronous batch has been
// absorbed by every shard. It is a no-op when nothing is in flight.
func (sc *ShardedCounter) Barrier() { sc.barrier() }

// Close stops the worker goroutines. It is idempotent, and the counter
// remains usable afterwards (a subsequent batch spawns a fresh pool).
// Counters that are simply dropped are cleaned up by the garbage
// collector, so Close is an optimization for tight lifecycles, not an
// obligation.
func (sc *ShardedCounter) Close() {
	sc.barrier()
	if sc.pool == nil {
		return
	}
	runtime.SetFinalizer(sc, nil)
	sc.pool.close()
	sc.pool = nil
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

// Edges returns the number of edges observed and fully processed.
func (sc *ShardedCounter) Edges() uint64 {
	sc.barrier()
	return sc.m
}

// AddBatch processes the batch on every shard concurrently and returns
// once all shards have absorbed it.
func (sc *ShardedCounter) AddBatch(batch []graph.Edge) {
	sc.AddBatchAsync(batch)
	sc.barrier()
}

// AddBatchAsync builds the batch index, hands the batch to the shard
// workers and returns without waiting for them, first completing any
// previously outstanding batch (at most one batch is in flight). The
// caller must not mutate batch until the next call into the counter.
// This is the double-buffered handoff: produce the next batch while the
// workers chew on this one.
func (sc *ShardedCounter) AddBatchAsync(batch []graph.Edge) {
	sc.barrier()
	if len(batch) == 0 {
		return
	}
	sc.ensurePool()
	sc.pool.submit(batch)
	sc.pending = uint64(len(batch))
}

// Add processes a single edge on every shard (sequentially; per-edge
// dispatch is too fine-grained to benefit from the pool).
func (sc *ShardedCounter) Add(e graph.Edge) {
	sc.barrier()
	for _, s := range sc.shards {
		s.Add(e)
	}
	sc.m++
	sc.publishCombined()
}

// EstimateTriangles returns the estimator-weighted mean across shards —
// identical to the mean over all r estimators. It reads the snapshot
// published at the last completed batch boundary (an in-flight
// AddBatchAsync batch is not yet included) and is safe to call
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
	sc.barrier()
	var xs []float64
	for _, s := range sc.shards {
		xs = append(xs, s.TriangleEstimates()...)
	}
	return stats.MedianOfMeans(xs, groups)
}
