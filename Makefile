# Development targets. `make ci` is what the GitHub Actions workflow runs
# on every push; `make bench-core` regenerates BENCH_core.txt, the
# `go test -bench` record of the AddBatch hot path and the ingestion
# pipeline that tracks their perf trajectory; `make bench-check` is the
# CI regression gate over that baseline.

GO ?= go

# bash + pipefail so a failing producer in `a | b` recipes (the smoke
# target's graphgen|trict pipelines) fails the target instead of being
# masked by the consumer's exit status.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all fmt vet build cross test race fuzz-smoke bench-smoke bench-core bench-check smoke smoke-serve smoke-crash perfbench-test perfpairs-test ci

all: ci

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# internal/core holds an amd64 assembly kernel (filter_amd64.s) beside
# the Go loop every other GOARCH runs: vet and build both other ways,
# so a declaration or file that only amd64 sees cannot break them. On
# amd64, vet's asmdecl check holds the kernel's frame offsets to its Go
# declaration.
cross:
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...
	GOARCH=386 $(GO) vet ./... && GOARCH=386 $(GO) build ./...

test:
	$(GO) test ./...

# The pattern also covers the fault-injection and watermark suites
# (Pipeline/Watermark/CountStream names), the block-granular merge
# suites (Merge and LoserTree: single-owner views handed decoder→merger,
# each source on its own channel, with the seed corpus of
# FuzzOrderedMergeMatchesReference, up to 8 mixed v2, slice and text
# sources), the snapshot readers-during-ingest suites, and the serving
# layer's concurrent HTTP tests, so source-failure isolation, the
# reorder stage, and the lock-free estimate read path all run under the
# race detector. It also runs the free list under concurrent borrowing
# (TestListParallelGetPut) and counters sharing the bulk engine's listed
# batch tables across goroutines (TestSharedTablesInterleavedAndParallel).
race:
	$(GO) test -race -run 'Sharded|Parallel|Pipeline|CountStream|Watermark|Snapshot|Serve|Merge|LoserTree' \
		./internal/core/ ./internal/stream/ ./internal/serve/ ./internal/freelist/ ./

# Fuzz the decoders for a short budget per target: FuzzTextSourceNext
# (no panic on arbitrary bytes, plain and timestamped),
# FuzzScanWindowEquivalence (plain bulk window scanner bit-identical to
# the per-edge path), FuzzTimestampedScanWindowEquivalence (the fused
# three-column scanner held to the same standard), the binary pair
# FuzzBinarySourceFill / FuzzTimestampedBinarySourceFill (bulk
# Peek/Discard decode bit-identical to per-record reads on truncated,
# corrupted, and timestamp-pathological streams; the timestamped target
# also pushes whatever decodes through the watermark stage),
# FuzzOrderedMergeMatchesReference (the ordered merge over up to 8
# v2/slice/text sources with arbitrary timestamps must equal the naive
# reference merge), FuzzWindowCheckpointDecode (the NSTW
# sliding-window checkpoint decoder, both versions: accepted bytes must
# decode to a reachable estimator state; version 2 re-encodes
# identically, version 1 converts to a state whose version-2 encoding
# decodes back to it; everything else is rejected by name),
# FuzzCounterCheckpointDecode (the checkpoint decoder, over NSTC blobs
# and NSTS shard envelopes: no panic or runaway allocation, decode →
# WriteTo → decode must keep the state, and every accepted state must
# then absorb a stream in batches without panicking), and
# FuzzFilterChunk (the bulk engine's AVX2 filter kernel must write the
# Go loop's candidates, in order, on any chunk, filter and key set; it
# skips on CPUs that do not select the kernel). Entries are package:Target pairs so targets can
# live next to the code they fuzz. `go test` alone already replays the
# seed corpus; this target actually mutates.
FUZZTIME ?= 20s
FUZZ_TARGETS := \
	internal/stream:FuzzTextSourceNext \
	internal/stream:FuzzScanWindowEquivalence \
	internal/stream:FuzzTimestampedScanWindowEquivalence \
	internal/stream:FuzzBinarySourceFill \
	internal/stream:FuzzTimestampedBinarySourceFill \
	internal/stream:FuzzBlockBinarySourceFill \
	internal/stream:FuzzOrderedMergeMatchesReference \
	internal/window:FuzzWindowCheckpointDecode \
	internal/core:FuzzCounterCheckpointDecode \
	internal/core:FuzzFilterChunk
fuzz-smoke:
	for t in $(FUZZ_TARGETS); do \
		$(GO) test -run xxx -fuzz "$${t##*:}"'$$' -fuzztime $(FUZZTIME) "./$${t%%:*}/"; \
	done

# A fast sanity pass over every benchmark (100 iterations each), catching
# bit-rot in the bench harness without paying for full measurement runs.
# The core, stream and window packages' own benchmarks (the filter
# kernel against the filter loop, the WAL block append and replay, the
# v2 body decode, the window engine's AddBatch) run here too, and
# nowhere else in CI.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 100x ./internal/bench/ ./internal/core/ ./internal/stream/ ./internal/window/

# One measurement run of the gated cells: each runs three times, and
# the gate reads the median Medges/s, since single runs jitter several
# percent on a busy machine. Every benchmark in internal/bench is gated
# but BulkLoadAddBatch, ServeIngestCheckpoint and ServeRecover: they
# came after the baseline was recorded, and would add about a fifth to
# the run's wall time.
BENCH_GATE_RUN = $(GO) test -run '^$$' -benchmem -count 3 \
	-bench '^Benchmark(AddBatchFlat|SlurpThenCount|PipelinedCount|MultiPipelinedCount|OrderedMergedCount|OrderedMergedCountV2|WatermarkedCount|TsBinaryDecodeBulk|BlockDecodeBulk|TextDecodePerEdge|TextDecodeBulk|TsTextDecodePerEdge|TsTextDecodeBulk|ServeIngestUnderReaders)$$' \
	./internal/bench/

# Full measurement run of the gated cells; writes the `go test -bench`
# output to BENCH_core.txt at the repo root. Commit the result so the
# perf trajectory is tracked.
bench-core:
	$(BENCH_GATE_RUN) | tee BENCH_core.txt

# Bench-regression gate: remeasure the gated cells into BENCH_fresh.txt
# (not committed) and compare edges/sec against the committed baseline
# with generous tolerances (fail < 0.5x, warn < 0.8x) so only
# architectural regressions gate the build.
bench-check:
	$(BENCH_GATE_RUN) | tee BENCH_fresh.txt
	$(GO) run ./cmd/benchcheck -baseline BENCH_core.txt -fresh BENCH_fresh.txt

# End-to-end smoke of the binaries and examples: generate graphs, stream
# them through trict in both formats (pipelined and buffered paths, the
# single-input default, multi-file parallel ingestion via repeated -i,
# windowed runs over timestamped two-file inputs — the ordered merge —
# and the robustness flags: a corrupt record inside a -max-bad-records
# budget and watermarked -lateness runs), plus the block-structured v2
# binary format end to end (single-stream windowed, sniffed into the
# whole-stream counter with timestamps stripped, an 8-shard windowed
# ordered merge — the block-gallop path — and a windowed merge of a v1
# shard with a v2 shard), check that trict's estimate does not depend on
# how many CPUs it may use (one run unrestricted, one pinned to CPU 0
# with taskset; neither the estimate nor the two-input merge may follow
# the scheduler), check that trict rejects -p together with -samples
# (-p has no effect anywhere and was never accepted with the sampler),
# and run every example — exercising the "[no test files]" packages.
smoke:
	rm -rf bin && mkdir -p bin
	$(GO) build -o bin ./cmd/...
	./bin/graphgen -kind er -n 2000 -m 8000 -seed 7 -shuffle | ./bin/trict -r 4096 -p 2
	./bin/graphgen -kind er -n 2000 -m 8000 -seed 7 -shuffle -format binary | ./bin/trict -r 4096 -p 2 -format binary
	./bin/graphgen -kind syn3reg | ./bin/trict -r 8192 -exact -samples 2
	./bin/graphgen -kind holmekim -n 5000 -mper 3 -ptriad 0.6 -format binary | ./bin/trict -r 4096 -format binary -dedup
	./bin/graphgen -kind holmekim -n 4000 -mper 3 -ptriad 0.5 -seed 11 > bin/smoke-a.txt
	./bin/graphgen -kind holmekim -n 4000 -mper 3 -ptriad 0.5 -seed 12 > bin/smoke-b.txt
	./bin/trict -r 4096 -p 2 -i bin/smoke-a.txt -i bin/smoke-b.txt
	if ./bin/trict -r 4096 -p 2 -samples 2 bin/smoke-a.txt > bin/smoke-p-samples.txt 2>&1; then \
		echo "trict accepted -p together with -samples"; exit 1; \
	fi
	grep -q -- '-p has no effect with -samples' bin/smoke-p-samples.txt
	./bin/graphgen -kind holmekim -n 4000 -mper 3 -ptriad 0.5 -seed 13 -format binary > bin/smoke-a.bin
	./bin/graphgen -kind holmekim -n 4000 -mper 3 -ptriad 0.5 -seed 14 -format binary > bin/smoke-b.bin
	./bin/trict -r 4096 -p 2 -format binary -i bin/smoke-a.bin -i bin/smoke-b.bin
	./bin/trict -r 4096 -format binary -dedup -i bin/smoke-a.bin -i bin/smoke-b.bin
	./bin/graphgen -kind holmekim -n 4000 -mper 3 -ptriad 0.5 -seed 15 -timestamps > bin/smoke-ts-a.txt
	./bin/graphgen -kind holmekim -n 4000 -mper 3 -ptriad 0.5 -seed 16 -timestamps > bin/smoke-ts-b.txt
	./bin/trict -r 512 -window 8000 -i bin/smoke-ts-a.txt -i bin/smoke-ts-b.txt
	./bin/graphgen -kind holmekim -n 4000 -mper 3 -ptriad 0.5 -seed 17 -timestamps -format binary > bin/smoke-ts-a.bin
	./bin/graphgen -kind holmekim -n 4000 -mper 3 -ptriad 0.5 -seed 18 -timestamps -format binary > bin/smoke-ts-b.bin
	./bin/trict -r 512 -window 8000 -format binary -i bin/smoke-ts-a.bin -i bin/smoke-ts-b.bin
	./bin/trict -r 512 -window 8000 -format binary -i bin/smoke-ts-a.bin
	./bin/graphgen -kind holmekim -n 4000 -mper 3 -ptriad 0.5 -seed 19 -timestamps | ./bin/trict -r 512 -window 8000
	sed '100s/.*/garbage line/' bin/smoke-ts-a.txt > bin/smoke-ts-dirty.txt
	./bin/trict -r 512 -window 8000 -lateness 50 -on-late count -max-bad-records 1 -i bin/smoke-ts-dirty.txt
	./bin/trict -r 512 -window 8000 -lateness 0 -i bin/smoke-ts-a.txt -i bin/smoke-ts-b.txt
	./bin/graphgen -kind holmekim -n 4000 -mper 3 -ptriad 0.5 -seed 20 -timestamps -shards 8 -o bin/smoke-ts-shard
	./bin/trict -r 512 -window 8000 \
		-i bin/smoke-ts-shard.000 -i bin/smoke-ts-shard.001 \
		-i bin/smoke-ts-shard.002 -i bin/smoke-ts-shard.003 \
		-i bin/smoke-ts-shard.004 -i bin/smoke-ts-shard.005 \
		-i bin/smoke-ts-shard.006 -i bin/smoke-ts-shard.007
	./bin/graphgen -kind holmekim -n 4000 -mper 3 -ptriad 0.5 -seed 23 -format binary2 | ./bin/trict -r 512 -window 8000 -format binary
	./bin/graphgen -kind er -n 2000 -m 8000 -seed 24 -shuffle -format binary2 | ./bin/trict -r 4096 -p 2 -format binary
	./bin/graphgen -kind holmekim -n 4000 -mper 3 -ptriad 0.5 -seed 25 -format binary2 -shards 8 -o bin/smoke-b2-shard
	./bin/trict -r 512 -window 8000 -format binary \
		-i bin/smoke-b2-shard.000 -i bin/smoke-b2-shard.001 \
		-i bin/smoke-b2-shard.002 -i bin/smoke-b2-shard.003 \
		-i bin/smoke-b2-shard.004 -i bin/smoke-b2-shard.005 \
		-i bin/smoke-b2-shard.006 -i bin/smoke-b2-shard.007
	./bin/trict -r 512 -window 8000 -format binary -i bin/smoke-ts-a.bin -i bin/smoke-b2-shard.000
	./bin/graphgen -kind holmekim -n 20000 -mper 5 -ptriad 0.7 -seed 3 > bin/smoke-hk.txt
	./bin/trict -r 4096 bin/smoke-hk.txt | grep 'triangles ≈' > bin/smoke-cpus-all.txt
	taskset -c 0 ./bin/trict -r 4096 bin/smoke-hk.txt | grep 'triangles ≈' > bin/smoke-cpus-one.txt
	diff bin/smoke-cpus-all.txt bin/smoke-cpus-one.txt
	./bin/trict -r 4096 -w 2048 -i bin/smoke-a.txt -i bin/smoke-b.txt | grep 'triangles ≈' > bin/smoke-merge-all.txt
	taskset -c 0 ./bin/trict -r 4096 -w 2048 -i bin/smoke-a.txt -i bin/smoke-b.txt | grep 'triangles ≈' > bin/smoke-merge-one.txt
	diff bin/smoke-merge-all.txt bin/smoke-merge-one.txt
	set -e; for ex in examples/*/ ; do echo "== $$ex"; $(GO) run ./$$ex >/dev/null; done

# End-to-end smoke of the trictd serving daemon: two tenants ingesting
# text and binary streams concurrently under estimate polling, then a
# SIGTERM + restart proving checkpoint recovery is bit-identical (plus
# a SIGKILL + restart leg held to the same standard).
smoke-serve:
	GO=$(GO) ./scripts/smoke-serve.sh

# Crash-consistency smoke against the real daemon: SIGKILL at rest must
# leave every estimate byte-identical, repeated SIGKILLs mid-ingest
# must never lose an acked edge (the WAL ack contract under
# -wal-sync always) nor recover two different states for one position,
# and a POST whose client dies mid-body must leave a state that a
# SIGKILL and restart reproduce byte for byte.
smoke-crash:
	GO=$(GO) ./scripts/smoke-crash.sh

# perfbench/ is a module of its own, so the root `go build ./...` never
# compiles it; vet and self-test it here, since it builds on the stream
# package's writers and readers.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Self-test of scripts/perfpairs.sh, the interleaved-pairs comparison
# that end-to-end perf claims rest on: it runs the script on two stub
# checkouts that print canned results and checks its quartiles, wins,
# gain and bound verdicts and its list of bad runs.
perfpairs-test:
	bash scripts/perfpairs-test.sh

# Mirrors the per-push GitHub Actions coverage (the matrix/fuzz/bench
# jobs run fmt..bench-smoke plus the smoke and perfbench jobs;
# fuzz-smoke and bench-check are separate because of their runtime).
ci: fmt vet build cross test race bench-smoke smoke smoke-serve smoke-crash perfbench-test perfpairs-test
