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
// TriangleCounter, TriangleSampler and the deprecated
// ParallelTriangleCounter (below) share one intake over one engine: the
// batch buffer, AddBatch, the CountStream pipelines, the estimates and,
// on the two counters, Snapshot and the checkpoint are one
// implementation, in front of the estimators, or of the estimators plus
// an exact degree tracker on the sampler.
//
// All types are deterministic given their seed, multi-source ingestion
// included: both merges behind CountStreams are pure functions of their
// inputs (see below). Streams must be simple: no self loops and no
// duplicate edges (use ReadEdgeList with dedup for raw data). The
// underlying technique is neighborhood sampling: sample a uniform
// level-1 edge from the stream, a uniform level-2 edge among the later
// edges adjacent to it, and wait for the closing edge; the sampling bias
// 1/(m·c) is known exactly and divides out.
//
// # Performance
//
// The batch hot path is map-free, allocation-free at steady state, and
// streams each batch once. AddBatch keys its index the way the paper's
// Algorithm 3 keys its tables: by what the estimators wait for, not by
// the batch. Only the endpoints of the level-1 edges (at most 2r
// vertices) and the closing pairs of the open wedges (at most r) are
// ever asked about, so every hash table holds O(r) entries and the
// batch is only streamed past them. The endpoint index is kept across
// batches. Step 1 interns the endpoints of each batch edge an estimator
// adopts, about r·w/(m+w) per batch, and every estimator caches the ids
// of its two endpoints. A key whose estimators have moved on stays until
// the next rebuild, which re-interns every level-1 endpoint in O(r). It
// runs after a fresh or restored counter or an Add, and once more than
// r/4 keys were interned since the last one, so it costs O(1) per
// adoption and the hash table stays at 4r slots of 8 bytes. When w < r
// the index holds 2r keys where one built per batch held 2w: still
// O(r), the estimator share of Theorem 3.5's O(r + w) space. One pass
// over the batch gives each key its batch degree and its occurrence
// list, a CSR naming the batch position at which it reaches each
// degree, and records the positions that hold a key. Step 2 walks the
// estimators in order and draws every random number. An estimator whose
// two endpoints both have batch degree 0 draws nothing; one that adopted
// a batch edge takes its β from the rank of that edge's position in the
// list; an EVENTB subscription resolves with one read of the list; and
// an open wedge whose outer level-1 endpoint occurs in the batch
// registers its closing pair in a table of at most r pairs. Every such
// pair contains that endpoint, so streaming the recorded positions past
// the table settles every wedge at once. All storage is reused across
// batches — the only steady-state heap allocation per AddBatch is the
// fixed-size estimate snapshot published for lock-free readers (see
// Serving).
//
// At trictd's default shape, r = 16,384 and w = 8r = 131,072, an index
// built from the batch itself needed two hash tables of 4w and 2w slots,
// about 10 MB against 2 MiB of L2 per core, and its build was most of
// AddBatch. The query-keyed tables and lists that are probed at random
// take under 2 MB there. On the repository benchmark's bulk-load
// workload (two r = 16,384, p = 2 tenants fed one-batch POSTs, 2 vCPUs)
// that raised trictd's edges per CPU second from 3.9M to 9.6M (medians
// of ten interleaved pairs), and cut its setup time from 0.60 s to
// 0.27 s and its peak RSS from 98 to 53 MiB. Down to w = r/4 AddBatch
// costs no more CPU per edge than the batch-keyed index did.
//
// That index was still rebuilt for every batch: a pass over the batch
// marked its vertices, all 2r level-1 endpoints were interned again, and
// a second pass settled the wedges. Keeping it across batches, with the
// scan the only pass left, raised bulk-load's edges per CPU second from
// 39.1M to 54.2M (medians of ten interleaved pairs, 2 vCPUs) and cut its
// setup time from 84 to 72 ms; peak RSS held at 37.5 MiB. The kept hash
// table there has 4r = 65,536 slots of 8 bytes, 512 KiB, against the
// 768 KiB of the per-batch table's 12-byte slots.
//
// ParallelTriangleCounter is deprecated: it is TriangleCounter's
// intake over one counter, seeded as shard 0 was when p split the
// estimators into shards. The shards ran one after another in the
// caller's goroutine and bought no speed, and the estimators are
// independent, so the split did not change the estimates' law either.
// A p = 1 counter keeps its states, estimates and checkpoint bytes (less
// the 20-byte shard envelope), p > 1 equals p = 1, and shard checkpoints
// of any p still restore (see Serving). The exact-law oracle
// (TestExactLaw in internal/core) is what licenses giving up
// bit-identity for p > 1: on tiny streams it checks every estimator's
// end state against Lemma 3.1's closed-form law, for AddBatch at several
// widths, Add, and counters restored from shard checkpoints. A
// many-core deployment that wants the estimator passes in parallel
// should measure against this sequential baseline first. Cells tracked
// in BENCH_core.txt measure these paths; regenerate with `make
// bench-core`. BenchmarkBulkLoadAddBatch in internal/bench prices
// Counter.AddBatch at bulk-load's shape, and the AddBatch cells report
// process CPU ns per edge beside wall time.
//
// # The windowed estimator
//
// SlidingWindowCounter runs Section 5.2's neighborhood sampling over the
// graph of the last w edges (Theorem 5.8). Each estimator needs a
// uniform level-1 edge of the window and, for it, the level-2 reservoir
// over the later adjacent edges. It keeps the level-1 sample by
// Babcock–Datar–Motwani chain sampling:
//
//   - the edge at position t replaces the estimator's whole chain with
//     probability 1/min(t, w);
//   - an edge that joins a chain at position p draws its successor's
//     position uniformly from (p, p+w−1]; when that edge arrives it
//     joins the chain and draws its own (at w = 1 there is none);
//   - when the head expires (at p+w) the next element becomes the head.
//
// Every chain element keeps its own level-2 state over the edges after
// it. All of those lie inside the window while the element does, so the
// element that becomes the head holds exactly the state neighborhood
// sampling would hold for it, and Lemma 3.2 applies to the window graph.
//
// The head is uniform over the window. Induct on t. While t ≤ w nothing
// expires and the replacements are reservoir sampling: the head is t
// with probability 1/t and otherwise the previous head, uniform over the
// other t−1 positions. For t > w, the head before t is uniform over
// (t−1−w, t−1]. With probability 1/w it is t−w and expires; its
// successor lies in (t−w, t−1], so it has arrived and is uniform over
// the w−1 older positions of the new window. So before the replacement
// each j in (t−w, t−1] is the head with probability
// 1/w + (1/w)·1/(w−1) = 1/(w−1). The edge t replaces with probability
// 1/w, which leaves each older position (1−1/w)·1/(w−1) = 1/w. The
// successor drawn at an element depends on nothing but that element's
// position, so the induction carries the rest of the chain along. The
// range (p, p+w] of the original scheme breaks this: the expiring head's
// successor can then be t itself, on top of t's own 1/w replacement
// chance, and the newest edge is the head with probability 0.60 at w = 2
// (uniform is 0.5).
//
// Cost. Once t ≥ w the head's age is uniform over the window and each
// successor lies a uniform step of up to w−1 further, so for large w
// the chain holds 1 + ∫₀¹(eˣ−1)dx = e−1 ≈ 1.72 arrived elements on
// average, whatever w is: the state is O(r), not the paper's
// O(r·log w). No estimator does anything on an edge unless it has an
// event there. The next replacement is drawn directly: while t < w,
// P(no replacement in (t, j]) = t/j, so it is ⌊t/U⌋+1 for U uniform on
// (0, 1] if that is at most w; from w on the gaps are geometric with
// mean w. Replacements, successor arrivals and head expiries sit on a
// calendar (a heap with one entry per estimator), and a vertex index
// over the live chain elements finds the elements adjacent to an
// arriving edge. An edge costs O(1 + adjacent elements + events due at
// its position). Most endpoints have no element: a counting filter over
// the index's keys, at least eight slots per key, answers those with one
// probe of a cache-resident table instead of a map lookup, so an edge
// that touches no live chain element costs a filter probe per endpoint
// and, for ids the hash spreads evenly, at least seven times in eight
// nothing more. The filter has no false negatives and draws no random
// number, so it changes no estimate. Scheduled positions beyond 2^62,
// the stream-position bound, never arrive, so no schedule wraps for
// huge w.
//
// Determinism. The work at position t runs in one fixed order — head
// expiries, level-2 updates, replacements, successor arrivals — with
// estimators in index order and the vertex index's lists in (position,
// estimator) order, the order in which elements arrive. The random draws
// are therefore a function of the state and the edge alone: a counter
// restored from a checkpoint (which rebuilds the calendar and the index)
// continues bit-identically, and WAL replay reproduces an uncrashed run.
//
// Restoring version-1 checkpoints. Before chain sampling, each estimator
// kept the suffix minima of i.i.d. uniform priorities ρ over the window
// (the head is the window's argmin), and NSTW version 1 stored those
// chains. ReadCounterFrom converts them exactly. Walk the old chain from
// its head s and let A = (s, t] be the positions that have arrived. In
// the new engine's law, s's successor is uniform over (s, s+w−1]; it
// lies in A with probability |A|/(w−1) and is then uniform over A. The
// old chain's next element is the argmin of ρ over A. Given everything
// the walk has seen — that s is the argmin over the window, so every ρ
// in A exceeds ρ_s — those priorities are still exchangeable, so the
// argmin is uniform over A. It also carries its exact level-2 state. So
// with probability |A|/(w−1) the successor is the old next element and
// the walk continues from it. Otherwise the successor has not arrived:
// it is scheduled uniformly over (t, s+w−1] and the walk stops. Future
// replacements are independent of the past given t, so their draws start
// afresh. Drawing with |A|/w instead, as for the range (p, p+w], biases
// the heads after conversion the same way that range does.
//
// # Pipelined ingestion
//
// The CountStream methods decode a Source — a text edge list
// (NewEdgeListSource), the 8-bytes-per-edge binary format
// (NewBinaryEdgeSource), or an in-memory slice (NewSliceSource) — on a
// dedicated decoder goroutine that fills fixed-size batch buffers drawn
// from a small recycle ring (WithPipelineDepth buffers circulate; an
// empty ring is the backpressure that keeps a fast producer from
// buffering the stream). Filled batches flow through a channel to the
// counter, which absorbs each one before its buffer is recycled, so
// I/O+decode overlaps counting and the resident set is a few batch
// buffers regardless of stream length — a graph never has to fit in
// memory to be counted, the property the adjacency-stream model
// promises. Errors and context
// cancellation propagate from the decoder to the CountStream caller,
// and the counter remains valid (reflecting exactly the edges absorbed)
// after a failed or cancelled stream. StreamStats prices I/O+decode
// separately from wall time, in the spirit of the paper's Table 3; the
// end-to-end gain over slurp-then-count is tracked in BENCH_core.txt
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
// per-edge decoding is a tracked BENCH_core.txt cell. The temporal
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
// goroutine, so decoding parallelizes across files, and the block merge
// (see Merge scaling) interleaves them: each source fills blocks of
// min(w, 4096) edges, w the batch size, and the merge takes block 0 of
// every source in argument order, then block 1, and so on, a source
// leaving the rotation when it runs out. The merged stream is a pure
// function of the inputs and w, so multi-source runs are bit-for-bit
// reproducible for any scheduler interleaving; CountStreams with one
// argument is exactly CountStream. The adjacency-stream model admits
// arbitrary order, so the estimates keep their guarantees under the
// block order. The union of the inputs must be a simple stream (no
// duplicate edges across files). Shutdown is first-error-wins (see
// Dying sources for the exception), StreamStats.DecodeSeconds
// aggregates every decoder, so it can exceed wall time, and
// StreamStats.PerSource attributes edges and decode time to each input
// so skewed shards are visible. cmd/trict exposes all of this through
// repeatable -i flags.
//
// The trade-off: a first-come merge keeps draining the other sources
// while one stalls, whereas the block merge waits for the slowest
// source's next block, and it pays CPU for determinism — every record is
// encoded into a block and copied out again (the MultiPipelinedCount
// cell of BENCH_core.txt tracks it). That does not matter for the
// multi-source traffic that exists: cmd/trict's repeated -i and
// examples/multifile read files, and cmd/trictd's ingest handler fills
// each tenant's batch straight from one request body.
//
// # Temporal streams and ordered multi-file ingestion
//
// The block round-robin above is the wrong order for the sliding-window
// counter: its window is defined by arrival sequence, so the window
// contents — and the estimate — would follow the file layout rather than
// time. SlidingWindowCounter.CountStreams therefore takes
// TimestampedSources and re-sequences their records with the same k-way
// merge keyed on the per-edge timestamp before the window sees any edge:
// smallest timestamp first, ties broken by source index, then intra-file
// order. The merged stream is a pure function of the inputs, so windowed
// multi-file runs are bit-for-bit reproducible for any scheduler
// interleaving.
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
// A plain source of the whole-stream CountStreams fills the same blocks,
// every record keyed by its block's index instead of a timestamp.
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
// Guidance on k: the merge's cost is tracked in BENCH_core.txt on
// worst-case (perfectly alternating, run length 1) timestamped shards —
// the OrderedMergedCount cells at k = 2, 8 and 64 — and grows by only a
// few ns/edge per tournament level out to k=64,
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
// Both multi-file paths are deterministic; the estimator picks one. The
// sliding window needs timestamped sources and the timestamp merge,
// because its window follows arrival time; the whole-stream counters
// take plain sources in block round-robin order, which the
// adjacency-stream model tolerates like any other order. cmd/trict
// selects the ordered path automatically for multi-input -window runs.
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
// trictd's write-ahead log is a v2 stream too. Its writer
// (BlockWriter.AppendEdgeBlock in internal/stream) logs each batch as
// one block in that same delta layout, with every timestamp zero:
// minTS = maxTS = 0 and each record u32 U, u32 V and the one-byte
// varint of a zero delta, 9 bytes where the uncompressed layout takes
// 16. It is no new layout, so every v2 reader decodes it.
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
// Dying sources. WithContinueOnSourceFailure makes CountStreams on the
// whole-stream counters abandon a source that fails mid-stream — after
// absorbing the edges it delivered — and let the survivors finish,
// recording each source's terminal error in StreamStats.PerSource; the
// run only fails if every source dies. The merge takes the dead source
// out of the rotation, so the run stays a pure function of the inputs.
// Whole-stream estimates survive a lost source with their distribution
// intact, for the edges absorbed, because the adjacency-stream model
// admits arbitrary order. SlidingWindowCounter.CountStreams stays
// fail-fast even with the option set: its window is defined by the
// complete timestamp-ordered sequence, so completing without a dead
// source's remaining edges would silently compute the window of a
// different stream rather than visibly fail.
//
// cmd/trict exposes two of the three: -lateness/-on-late and
// -max-bad-records.
//
// # Serving
//
// cmd/trictd is the resident serving process: it hosts many named
// counters (one per tenant/graph) behind an HTTP JSON API — PUT
// /v1/counters/{name} creates a counter from a JSON config (r, p,
// window, seed, batch_size), POST /v1/counters/{name}/edges ingests a
// request body in either edge format, one batch at a time in the
// request handler, GET /v1/counters/{name}/estimate reads the current
// estimate, and DELETE drops the tenant.
//
// Estimates are read through published snapshots: at every batch
// boundary the counter publishes an immutable snapshot of its estimate
// state behind one atomic pointer, and Snapshot (on TriangleCounter and
// ParallelTriangleCounter) is a single pointer load against that. A
// snapshot reflects exactly the stream prefix absorbed at some batch
// boundary — edges still in the intake buffer or in the batch being
// absorbed are not yet included — so readers get a consistent
// (edges, triangles, wedges, transitivity) tuple without taking any
// lock, queries never stall ingestion, and ingestion bursts never
// stall queries. The cost to the ingest path is one fixed-size
// allocation per batch; the ServeIngestUnderReaders cell in
// BENCH_core.txt tracks ingest throughput with concurrent readers
// polling.
//
// trictd publishes every tenant's estimates at each batch boundary,
// windowed tenants included, behind one atomic pointer per tenant; the
// estimate GET and the tenant listing only load it, so they never wait
// for a POST, a stalled one included. For a windowed tenant that costs
// one O(r) pass per batch. SlidingWindowCounter has no Snapshot of its
// own: its Add absorbs one edge at a time, and republishing on every
// edge would cost O(r) per edge.
//
// Durability: with a data directory configured, trictd's contract is
// that an acked ingest survives any crash. The ingest handler reads a
// POST body one batch of w edges (the tenant's batch size) at a time,
// appends the batch to a per-tenant segmented write-ahead log as one
// self-checksummed block (the v2 block format, 9 bytes per edge in its
// delta layout; see Binary formats), and only then hands the same batch
// to the counter. The log's blocks are thus the counter's batches, and
// a batch the log refused never reaches the counter; a request that
// fails mid-body (a malformed record, a dropped client) leaves both at
// the same batch boundary. Between POSTs a tenant holds its counter and
// one ingest buffer of w edges, allocated with the tenant, and nothing
// else that scales with r or w: the handler's 64 KiB body reader, each
// WAL block's encode buffer and each checkpoint's serialization buffer
// are borrowed from pools and returned when the request, the append or
// the checkpoint's file write is done, and a tenant's log keeps one
// block writer (a 64 KiB write buffer) across segment rotations. So at
// steady state ingest, checkpoints and rotations allocate nothing r- or
// w-sized, and recovery allocates no more than the counter and the
// ingest buffer: its WAL replay decodes into the latter. Every v2
// reader reads both block layouts, so recovery also replays logs that
// earlier builds wrote at 16 bytes per edge, and earlier builds replay
// the 9-byte log. Under the default -wal-sync always the
// segment is fsynced before the ack, so the 200 means "on disk", not
// "in page cache". -wal-sync interval trades that
// for one background fsync per -wal-sync-interval (bounding loss to the
// interval on power failure; a plain process kill still loses nothing
// the OS accepted), and -wal-sync none leaves flushing entirely to the
// OS — the policy is the knob between ack latency and the power-loss
// window.
//
// Logging and absorbing in the handler's own goroutine is a trade-off:
// inside one POST, decoding and WAL encoding no longer overlap AddBatch
// the way CountStream's decode goroutine overlaps them for files (trict
// and library callers keep that overlap). Bodies of one or two batches
// have little to overlap. A single 2M-edge body shows the cost (2-vCPU
// box, Go 1.24.0, median of 12 runs): a durable whole-stream tenant at
// r=16384, p=2 takes 1.26× the wall time per edge on a text body and
// 1.13× on a binary one, for 1.07× and 1.02× the CPU; a windowed
// tenant at r=64 takes 1.17× the wall time on a v2 body, for 0.94× the
// CPU.
//
// Checkpoints bound replay, they do not define durability: on a timer,
// on demand (POST /v1/checkpoint), and during graceful shutdown, each
// tenant's counter is serialized to a new checkpoint generation (fsync,
// atomic rename, directory fsync), the newest -checkpoint-retain
// generations are kept, and WAL segments covered by the oldest retained
// generation are pruned. Whole-stream tenants serialize through
// WriteTo/RestoreParallelTriangleCounter (an NSTC blob; restore also
// reads the NSTS envelope of p shards that tenants wrote while p split
// the estimators, as one counter that holds the shards' estimators in
// shard order and continues on shard 0's random generator: its later
// estimates keep their law but not their values when p > 1);
// windowed tenants through SlidingWindowCounter.WriteTo /
// RestoreSlidingWindowCounter (the NSTW envelope, whose version-1
// checkpoints convert on restore). Recovery restores
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
