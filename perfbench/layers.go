package main

import (
	"time"
)

// Per-layer metric names. The layers are the modules: serve
// (internal/serve, hosted in-process), stream (internal/stream: body
// decoders and the WAL block format), counter (the tenant's estimator:
// internal/core's sharded counter on whole-stream tenants,
// internal/window's on windowed ones), streamtri (the root package's
// CountStream pipeline), process (this process's CPU and allocation
// counters) and loadgen (the load generator itself).

// setLayerMetrics derives the per-layer metrics of a traced run from
// its spans and counters. Per-POST figures cover the timed phase only;
// restore and WAL-tail figures cover the replayed recovery.
func setLayerMetrics(out *output, spans []span, rp *replayResult, lr *loadResult,
	pc *processCounters, tracedRate, overhead float64) {
	timedClient := make(map[int32]bool)
	for _, s := range spans {
		if s.Timed && (s.Name == "loadgen.post" || s.Name == "loadgen.get" || s.Name == "loadgen.checkpoint") {
			timedClient[s.ID] = true
		}
	}
	durs := make(map[string][]float64) // span name -> durations (ns) in the timed phase or recovery
	sums := make(map[string]time.Duration)
	count := make(map[string]int)
	ingest := make(map[int32]time.Duration)   // rid -> serve.ingest duration
	replayed := make(map[int32]time.Duration) // rid -> replayed ingest children
	for _, s := range spans {
		timed := s.Timed || timedClient[s.RID]
		switch s.Name {
		case "serve.recover", "counter.restore", "stream.wal_decode", "counter.replay":
		default:
			if !timed {
				continue
			}
		}
		d := s.dur()
		durs[s.Name] = append(durs[s.Name], float64(d))
		sums[s.Name] += d
		count[s.Name]++
		switch s.Name {
		case "serve.ingest":
			ingest[s.RID] = d
		case "stream.source", "stream.fill", "stream.wal_append", "counter.add_batch", "counter.flush", "serve.wal_sync":
			replayed[s.RID] += d
		}
	}
	var other, share []float64
	for rid, d := range ingest {
		other = append(other, float64(d-replayed[rid]))
		share = append(share, float64(replayed[rid])/float64(d))
	}
	p := func(name string, q float64) float64 { v, _ := percentile(durs[name], q); return v }
	perEdge := func(d time.Duration, edges uint64) float64 { return float64(d) / float64(max(edges, 1)) }
	const msPerNs, sPerNs = 1e-6, 1e-9

	out.set("serve.recover_s", "s", median(durs["serve.recover"])*sPerNs)
	out.set("serve.ingest_ms", "ms", p("serve.ingest", 0.5)*msPerNs)
	out.set("serve.ingest_other_ms", "ms", median(other)*msPerNs)
	out.set("serve.ingest_replayed_ratio", "ratio", median(share))
	out.set("serve.wal_sync_ms", "ms", p("serve.wal_sync", 0.5)*msPerNs)
	out.set("serve.estimate_ms", "ms", p("serve.estimate", 0.5)*msPerNs)
	out.set("serve.estimate_p90_ms", "ms", p("serve.estimate", 0.9)*msPerNs)
	out.set("serve.checkpoint_ms", "ms", median(durs["serve.checkpoint"])*msPerNs)

	out.set("stream.decode_ns_per_edge", "ns/edge", perEdge(sums["stream.source"]+sums["stream.fill"], rp.timedEdges))
	out.set("stream.batches", "count", float64(count["counter.add_batch"]))
	out.set("stream.wal_encode_ns_per_edge", "ns/edge", perEdge(sums["stream.wal_append"], rp.timedEdges))
	out.set("stream.wal_bytes_per_edge", "B/edge", float64(rp.timedWALBytes)/float64(max(rp.timedEdges, 1)))
	out.set("stream.wal_decode_ns_per_edge", "ns/edge", perEdge(sums["stream.wal_decode"], rp.walTailEdges))

	out.set("counter.add_batch_ns_per_edge", "ns/edge", perEdge(sums["counter.add_batch"]+sums["counter.flush"], rp.timedEdges))
	out.set("counter.estimate_ns", "ns", p("counter.estimate", 0.5))
	out.set("counter.checkpoint_write_ms", "ms", median(durs["counter.checkpoint_write"])*msPerNs)
	var ckptBytes float64
	for _, b := range rp.checkpointBytes {
		ckptBytes += float64(b)
	}
	out.set("counter.checkpoint_bytes", "B", ckptBytes/float64(len(rp.checkpointBytes)))
	out.set("counter.restore_ms", "ms", median(durs["counter.restore"])*msPerNs)
	out.set("counter.replay_ns_per_edge", "ns/edge", perEdge(sums["counter.replay"], rp.walTailEdges))

	out.set("streamtri.count_stream_overhead_ns_per_edge", "ns/edge", overhead)

	medges := float64(lr.ackedEdges) / 1e6
	out.set("process.cpu_s_per_medge", "s/Medge", (pc.cpu1-pc.cpu0).Seconds()/medges)
	out.set("process.alloc_bytes_per_edge", "B/edge", float64(pc.ms1.TotalAlloc-pc.ms0.TotalAlloc)/float64(max(lr.ackedEdges, 1)))
	out.set("process.gc_cycles", "count", float64(pc.ms1.NumGC-pc.ms0.NumGC))

	late, _ := percentile(lr.lateMs, 0.9)
	out.set("loadgen.send_late_ms", "ms", late)
	out.set("loadgen.traced_edges_per_s", "1/s", tracedRate)
}
