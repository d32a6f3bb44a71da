package bench

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamtri/internal/core"
)

// Serving benchmark: ingestion throughput while concurrent readers poll
// the published estimate snapshot — the trictd steady state, where
// estimate GETs land between batch boundaries of an active ingest. The
// readers go through Counter.Snapshot (a single atomic pointer load, the
// path behind the estimates the server publishes), so the cell prices
// exactly what the snapshot design claims: queries that cost the ingest
// path nothing beyond cache traffic on the published pointer. The
// acceptance comparison is this cell against the reader-free
// PipelinedCount cell at the same (r, w) — the gap is the total cost of
// serving reads during ingest.

// ServeBenchReaders is the concurrent-reader count of the serving cell.
// It is a constant, not CPU-derived: the cell name is a bench-gate
// comparison key and must be identical on every machine.
const ServeBenchReaders = 4

// BenchServeIngestUnderReaders measures b.N binary-pipeline passes into
// c while `readers` goroutines poll c.Snapshot in a paced loop
// (~200µs between polls — a busy polling client, not a spin loop that
// would just price scheduler contention on small runners). The readers
// run untimed alongside the warm pass too, so the timed region starts
// in steady state. Its cpu-ns/edge is the whole process's, the readers'
// polling included.
func BenchServeIngestUnderReaders(b *testing.B, data []byte, w, depth, readers int, c *core.Counter) {
	var stop atomic.Bool
	var polls atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for !stop.Load() {
				s := c.Snapshot()
				if e := s.Edges(); e < last {
					b.Errorf("snapshot edges went backwards %d -> %d", last, e)
					return
				} else {
					last = e
				}
				polls.Add(1)
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}
	timePasses(b, len(data)/8, func() { pipeOnePass(b, data, w, depth, c) })
	stop.Store(true)
	wg.Wait()
	b.ReportMetric(float64(polls.Load())/b.Elapsed().Seconds(), "reads/s")
}
