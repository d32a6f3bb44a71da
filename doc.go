// Package streamtri is a Go implementation of "Counting and Sampling
// Triangles from a Graph Stream" (Pavan, Tangwongsan, Tirthapura, Wu;
// PVLDB 6(14), 2013).
//
// The library processes a graph presented as a stream of undirected edges
// in arbitrary order (the adjacency stream model) using small, constant
// space per estimator, and provides:
//
//   - TriangleCounter — an (ε,δ)-approximate count of the triangles τ(G),
//     wedges ζ(G), and the transitivity coefficient κ(G) = 3τ/ζ, with
//     O(r+w)-time bulk processing of edge batches (amortized O(1) per
//     edge when the batch size is Θ(r));
//   - TriangleSampler — k triangles sampled uniformly at random from the
//     set of all triangles;
//   - CliqueCounter4 — an approximate count and uniform samples of
//     4-cliques;
//   - SlidingWindowCounter — the triangle count of the most recent w
//     edges.
//
// All types are deterministic given their seed (first-come multi-source
// ingestion via CountStreams on the whole-stream counters is the one
// documented exception — see below; the timestamp-ordered merge behind
// SlidingWindowCounter.CountStreams is deterministic). Streams
// must be simple: no self loops and no duplicate edges (use ReadEdgeList
// with dedup for raw data). The underlying technique is neighborhood
// sampling: sample a uniform level-1 edge from the stream, a uniform
// level-2 edge among the later edges adjacent to it, and wait for the
// closing edge; the sampling bias 1/(m·c) is known exactly and divides
// out.
//
// # Performance
//
// The batch hot path is map-free and allocation-free at steady state:
// each batch's vertices are interned to dense ids through an
// epoch-stamped hash index, the degree table is a flat slice indexed by
// interned id, the level-1 inverted index is a batch-index-sorted pair
// list consumed by a cursor, EVENTB subscriptions live in an
// open-addressed table with packed (vertex, degree) uint64 keys and
// inline chains, and wedge closing is resolved by probing a per-batch
// edge index (guarded by a batch-vertex bitmap) instead of re-subscribing
// every open wedge. All scratch storage is reused across batches — the
// only steady-state heap allocation per AddBatch is the fixed-size
// estimate snapshot published for lock-free readers (see Serving); it
// measured 2.5–3× faster than the original map-based tables while both
// paths existed (that comparison predates the map path's removal — the
// cells tracked in BENCH_core.json today all measure the surviving
// implementations; regenerate with `make bench-core`).
// ParallelTriangleCounter feeds a persistent
// per-shard worker pool through double-buffered batch handoff, so shard
// processing overlaps edge intake with no per-batch goroutine spawning
// and no copying.
//
// # Pipelined ingestion
//
// The CountStream methods decode a Source — a text edge list
// (NewEdgeListSource), the 8-bytes-per-edge binary format
// (NewBinaryEdgeSource), or an in-memory slice (NewSliceSource) — on a
// dedicated decoder goroutine that fills fixed-size batch buffers drawn
// from a small recycle ring (WithPipelineDepth buffers circulate; an
// empty ring is the backpressure that keeps a fast producer from
// buffering the stream). Filled batches flow through a channel into the
// counter's asynchronous batch handoff, so I/O+decode overlaps shard
// processing and the resident set is a few batch buffers regardless of
// stream length — a graph never has to fit in memory to be counted, the
// property the adjacency-stream model promises. Errors and context
// cancellation propagate from the decoder to the CountStream caller,
// and the counter remains valid (reflecting exactly the edges absorbed)
// after a failed or cancelled stream. StreamStats prices I/O+decode
// separately from wall time, in the spirit of the paper's Table 3; the
// end-to-end gain over slurp-then-count is tracked in BENCH_core.json
// and gated in CI (`make bench-check`).
//
// # Text format and bulk decoding
//
// The text format is a SNAP-style edge list: one edge per line as
// "u v" or "u\tv", decimal uint32 vertex ids, '#'/'%' comment lines,
// blank lines skipped, self loops dropped. Additional columns after the
// two ids are accepted when numeric (SNAP exports carry timestamps and
// weights there) and rejected otherwise — a malformed line fails the
// decode with its line number rather than silently passing as an edge.
// Lines have no length limit. Both decode paths — the per-edge Source
// interface and the bulk scanner the pipeline prefers, which scans
// whole buffered windows in one fused loop — share one line parser and
// are bit-identical on every input; the bulk path's throughput gain over
// per-edge decoding is a tracked BENCH_core.json cell. The temporal
// three-column format has the same two paths, the same guarantee, and
// its own fused window scanner; the plain and timestamped bulk decoders
// share a single window-maintenance loop (refill, spill, unterminated
// final line) parameterized by the per-format scanner and parser, so
// the subtle buffering logic exists exactly once. The binary format
// remains the fastest: fixed 8-bytes-per-edge little-endian u32 pairs,
// no header.
//
// # Multi-file ingestion
//
// CountStreams (on TriangleCounter, ParallelTriangleCounter, and
// TriangleSampler) ingests several Sources at once — typically one per
// input file, and formats can mix. Each source decodes on its own
// goroutine, all drawing batch buffers from one shared recycle ring, so
// ingestion itself parallelizes across files the way partitioned-ingest
// systems scale I/O with hardware. The contract: edges of one source
// keep that source's order, the interleaving across sources is
// scheduler-dependent, and the union of the inputs must be a simple
// stream (no duplicate edges across files). The adjacency-stream model
// admits arbitrary order, so estimates keep their distribution; what
// multi-source runs give up is bit-for-bit reproducibility (a single
// source, including CountStreams with one argument, remains fully
// deterministic). Shutdown is first-error-wins,
// StreamStats.DecodeSeconds aggregates every decoder, so it can exceed
// wall time, and StreamStats.PerSource attributes edges and decode time
// to each input so skewed shards are visible. cmd/trict exposes all of
// this through repeatable -i flags.
//
// # Temporal streams and ordered multi-file ingestion
//
// The first-come merge above is the wrong tool for the sliding-window
// counter: its window is defined by arrival sequence, so a
// scheduler-dependent interleaving would make the window contents — and
// the estimate — non-reproducible. SlidingWindowCounter.CountStreams
// therefore takes TimestampedSources and re-sequences their records
// with a k-way merge on the per-edge timestamp before the window
// sees any edge: smallest timestamp first, ties broken by source index,
// then intra-file order. The merged stream is a pure function of the
// inputs, so windowed multi-file runs are bit-for-bit reproducible for
// any scheduler interleaving — the determinism the first-come funnel
// gives up.
//
// # Merge scaling
//
// The k-way merge is built to stay cheap from k = 2 to k in the
// hundreds (object-store shard counts), and every source set runs the
// same engine. Each decoder hands the merger blocks of raw 16-byte
// records, each block carrying an upper bound on its timestamps: a v2
// reader passes its validated blocks as zero-copy views with the
// header's bound, and any other source — v1, text, a slice, the
// watermark stage — fills pooled blocks of up to min(w, 4096) records
// through its bulk decoder, computing their exact maximum as it fills.
// The comparison engine is a loser tree over flat key arrays — a
// tournament tree whose replay costs one comparison per level,
// ⌈log2 k⌉ per emitted edge (a single one at k = 2, the most common
// degree), against a binary heap's two per level. When the same source
// keeps winning (pre-sorted shards with long monotone runs, the shape
// partitioned temporal exporters produce), the merge gallops: after a
// few consecutive wins it computes the runner-up key once and copies
// the rest of the run with no tree work — a whole block at a time while
// the block's max timestamp still beats that key, one comparison per
// edge where the ranges overlap — across block boundaries. Because
// every bound holds for every record in its block, the gallop is sound
// on unsorted sources too. Alternating inputs never trip the hysteresis
// and stay on the per-edge tournament, so the worst case is never worse
// than the tree. Decoders hand blocks to the merger through one shared
// source-tagged ring, flow-controlled by per-source credits, rather
// than one channel per source.
//
// Guidance on k: overhead over the first-come merge is tracked in
// BENCH_core.json on worst-case (perfectly alternating, run length 1)
// shards — the OrderedMergedCount cells against MultiPipelinedCount —
// and grows by only a few ns/edge per tournament level out to k=64,
// i.e. sublinearly in log k and far sublinearly in k. Sorted shards
// with real runs merge at nearly copy speed at any k. Prefer fewer,
// larger shards when you control the layout; when you do not, wide
// merges are safe — the cost of k lives in buffer memory (about three
// pooled blocks of up to 64 KiB per source), not in comparisons.
//
// The timestamp column contract: temporal text files carry "u v ts"
// lines, where ts is the third column — a decimal int64 — that the
// plain decoder accepts and discards; the timestamped decoder
// (NewTimestampedEdgeListSource) requires and keeps it. Fractional or
// exponent-form timestamps are rejected rather than truncated (a
// truncated float could reorder edges); further numeric columns after
// the timestamp are tolerated as weights. The timestamped binary format
// (NewTimestampedBinaryEdgeSource, WriteTimestampedBinaryEdges) is
// versioned — an 8-byte magic header, then 16-byte little-endian
// records (u32 U, u32 V, i64 ts) — so it cannot be confused with the
// headerless 8-byte plain format. Timestamps are opaque: only their
// order matters. Sources must individually be timestamp-nondecreasing
// for the merged output to be globally sorted (sorted SNAP temporal
// exports qualify); the determinism guarantee holds either way, since
// the merge never reorders within a source.
//
// Prefer ordered ingestion (timestamped sources + the k-way merge) when
// the estimator is order-sensitive — the sliding window — or when
// reproducible runs matter more than peak ingest; prefer the first-come
// merge (CountStreams on the whole-stream counters) when order is
// irrelevant to the estimate and the lowest merge overhead wins.
// cmd/trict selects the ordered path automatically for multi-input
// -window runs.
//
// # Binary formats
//
// Three binary layouts coexist, all little-endian. SniffFormat
// dispatches among the headered two from any 8-byte prefix; cmd/trict,
// trictd ingest bodies, and the examples all route through it, so a
// reader never has to be told which flavor a file is.
//
//	plain     no header; 8-byte records: u32 U, u32 V
//	v1        magic "STRTSB01"; 16-byte records: u32 U, u32 V, i64 TS
//	v2        magic "STRTSB02"; a sequence of self-describing blocks
//
// Each v2 block is a 32-byte header followed by its payload:
//
//	u32 count       records in the block (zero is malformed)
//	u32 flags       bit 0 = varint-delta timestamps; others reserved
//	u32 payloadLen  payload bytes after the header
//	u32 crc         CRC-32C (Castagnoli) of the payload
//	i64 minTS       smallest timestamp in the block
//	i64 maxTS       largest timestamp in the block
//
// An uncompressed payload is count 16-byte v1-shaped records. With
// WithBlockDeltaTimestamps, each record is u32 U, u32 V, then the
// timestamp as a zigzag varint delta against the previous record's
// (the first against minTS) — roughly halving sorted-stream size.
// Writers cut blocks at WithBlockRecords records (default 4096, a
// 64 KiB uncompressed payload); a final partial block is normal. An
// empty stream is the bare magic.
//
// The declared bounds are load-bearing: the reader verifies every
// timestamp lies within [minTS, maxTS] and fails the stream on a lying
// header, because the ordered merge trusts maxTS to skip comparisons
// (below). The checksum makes damage skippable rather than silent:
// under WithDecodeErrorPolicy a corrupt or truncated block costs one
// unit of budget, loses exactly that block's records, and decoding
// resumes at the next header. Structural damage — impossible counts,
// unknown flags, inverted bounds, malformed varints — stays fatal, as
// with every format. Sniffing is strict in both directions: the v1
// reader names a v2 stream in its error (and vice versa) instead of
// misparsing it, and unknown "STRTSB" versions are rejected by name.
//
// Migration is mechanical: v2 carries exactly v1's record content, so
// WriteBlockBinaryEdges(w, ReadTimestampedBinaryEdges(r)) upgrades a
// file, every consumer accepts both via sniffing, and graphgen emits
// v2 with -format binary2. Prefer v2 for anything that matters: it
// detects corruption v1 cannot, compresses sorted timestamps, and
// reaches the ordered merge without a copy.
//
// Every source of a SlidingWindowCounter.CountStreams call reaches the
// ordered merge as blocks (see Merge scaling), so every source set —
// v1, v2, text, or any mix — gets the flat-key tree and the block
// gallop. v2 readers (NewBlockBinaryEdgeSource) additionally skip the
// record encode the other sources pay: they hand whole validated
// blocks downstream as zero-copy views into the decode buffer, and the
// gallop consults the header's maxTS directly. The merged sequence
// depends only on the records, never on the formats or block
// boundaries, so a v2 file, its v1 twin, and any mix of the two merge
// to the same edges. Block views are reference-counted and recycled
// through a pool — the merge's resident set stays a few blocks per
// source, and consumers of the public API never see a view: batches
// handed to Next/Recycle remain plain owned slices.
//
// # Dirty and out-of-order input
//
// Real feeds are not clean. Three independent, composable knobs turn
// the failure modes that matter from fatal (or silently wrong) into
// measured:
//
// Out-of-order timestamps. WithLateness(L) inserts a bounded-lateness
// watermark stage between each timestamped decoder and the ordered
// merge: every edge whose timestamp displacement — the maximum
// timestamp seen before it, minus its own — is at most L is emitted in
// nondecreasing timestamp order, exactly as if the source had been
// stably sorted by timestamp first (ties keep arrival order). Edges
// displaced beyond L are late; they are never emitted — emitting them
// would re-break the order already handed downstream — and are
// counted (StreamStats.LateEdges, attributed per source) and, under
// WithLateSideChannel, handed to a callback for dead-lettering.
// Buffering is bounded by the source's actual disorder, not by L, and
// L = 0 (tolerate nothing, filter any regression) is a heap-free
// in-place path that is bit-identical to the unwatermarked pipeline on
// sorted input. The contract is exact, so a run that reports zero late
// edges used a sufficient bound, and reruns are bit-for-bit
// reproducible either way.
//
// Malformed records. WithDecodeErrorPolicy(n) lets each source skip up
// to n malformed records — unparseable text lines, truncated binary
// tails — instead of failing on the first. Skips are counted
// (StreamStats.BadRecords) and the first few offending records are
// retained verbatim (BadRecordSamples) so the failure is diagnosable;
// exceeding the budget fails the stream with those samples in the
// error. Only record-level damage is skippable: I/O errors and
// format or header mismatches stay fatal, so the budget cannot mask a
// wrong file.
//
// Dying sources. WithContinueOnSourceFailure makes the first-come
// multi-source funnel (CountStreams on the whole-stream counters)
// abandon a source that fails mid-stream — after absorbing the edges
// it delivered — and let the survivors finish, recording each
// source's terminal error in StreamStats.PerSource; the run only fails
// if every source dies. The ordered merge deliberately ignores this
// option and stays fail-fast: its output is a pure function of the
// complete inputs, so completing without a dead source's remaining
// edges would silently change the merged sequence — and the
// window estimate — rather than visibly fail. First-come estimates
// survive a lost source with their distribution intact because the
// adjacency-stream model admits arbitrary order, which is exactly the
// property the ordered path does not have.
//
// cmd/trict exposes all three as -lateness/-on-late and
// -max-bad-records.
//
// # Serving
//
// cmd/trictd is the resident serving process: it hosts many named
// counters (one per tenant/graph) behind an HTTP JSON API — PUT
// /v1/counters/{name} creates a counter from a JSON config (r, p,
// window, seed, batch_size), POST /v1/counters/{name}/edges ingests a
// request body in either edge format through the decode pipeline,
// GET /v1/counters/{name}/estimate reads the current estimate, and
// DELETE drops the tenant.
//
// Estimates are read through published snapshots: at every batch
// boundary the counter publishes an immutable snapshot of its estimate
// state behind one atomic pointer, and Snapshot (on TriangleCounter and
// ParallelTriangleCounter) is a single pointer load against that. A
// snapshot reflects exactly the stream prefix absorbed at some batch
// boundary — edges still in the intake buffer or in an in-flight
// asynchronous batch are not yet included — so readers get a consistent
// (edges, triangles, wedges, transitivity) tuple without taking any
// lock, queries never stall ingestion, and ingestion bursts never
// stall queries. The cost to the ingest path is one fixed-size
// allocation per batch; the ServeIngestUnderReaders cell in
// BENCH_core.json tracks ingest throughput with concurrent readers
// polling.
//
// Durability: with a data directory configured, trictd's contract is
// that an acked ingest survives any crash. Every POST body's decoded
// batches are appended to a per-tenant segmented write-ahead log as
// self-checksummed blocks (the v2 block format, one block per pipeline
// batch) before the request is acked; under the default -wal-sync
// always the segment is fsynced before the ack, so the 200 means "on
// disk", not "in page cache". -wal-sync interval trades that for one
// background fsync per -wal-sync-interval (bounding loss to the
// interval on power failure; a plain process kill still loses nothing
// the OS accepted), and -wal-sync none leaves flushing entirely to the
// OS — the policy is the knob between ack latency and the power-loss
// window.
//
// Checkpoints bound replay, they do not define durability: on a timer,
// on demand (POST /v1/checkpoint), and during graceful shutdown, each
// tenant's counter is serialized to a new checkpoint generation (fsync,
// atomic rename, directory fsync), the newest -checkpoint-retain
// generations are kept, and WAL segments covered by the oldest retained
// generation are pruned. Whole-stream tenants serialize through
// WriteTo/RestoreParallelTriangleCounter (the NSTS sharded envelope);
// windowed tenants through SlidingWindowCounter.WriteTo /
// RestoreSlidingWindowCounter (the NSTW envelope). Recovery restores
// the newest generation that validates — both decoders reject corrupt
// or truncated blobs by name, and a generation that fails falls back to
// the next older one rather than failing the start — then replays the
// log tail block by block. Because the log's block boundaries are the
// counter's AddBatch boundaries, the recovered counter is bit-identical
// to a process that absorbed the same prefix and never crashed.
//
// How the crash matrix plays out: SIGTERM drains in-flight requests,
// takes a final checkpoint, and exits — restart replays nothing.
// SIGKILL (or a panic, or power loss under -wal-sync always) loses the
// process mid-anything; restart restores the last durable generation
// and replays the WAL tail, truncating at the first block whose
// CRC-32C fails — a torn tail can only hold edges that were never
// acked. A crash mid-checkpoint leaves a half-written temp file the
// atomic rename never published; the previous generations and the
// un-truncated log still recover everything. A crash mid-WAL-append
// tears the final block; the acked prefix before it is intact. A
// tenant damaged beyond every fallback — all generations invalid and
// the log not reaching back to the stream's start — is quarantined
// (files renamed to <name>.corrupt.*) and logged loudly instead of
// taking the server or its healthy neighbors down.
//
// Quick start:
//
//	tc := streamtri.NewTriangleCounter(100_000, streamtri.WithSeed(1))
//	for _, e := range edges {
//		tc.Add(e)
//	}
//	fmt.Printf("≈%.0f triangles\n", tc.EstimateTriangles())
package streamtri
