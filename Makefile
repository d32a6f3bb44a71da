# Development targets. `make ci` is what the GitHub Actions workflow runs
# on every push; `make bench-core` regenerates BENCH_core.json, the
# machine-readable perf trajectory of the AddBatch hot path and the
# ingestion pipeline; `make bench-check` is the CI regression gate over
# that baseline.

GO ?= go

# bash + pipefail so a failing producer in `a | b` recipes (the smoke
# target's graphgen|trict pipelines) fails the target instead of being
# masked by the consumer's exit status.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all fmt vet build test race fuzz-smoke bench-smoke bench-core bench-check smoke smoke-serve smoke-crash perfbench-test ci

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

test:
	$(GO) test ./...

# The pattern also covers the fault-injection and watermark suites
# (Pipeline/Watermark/CountStream names), the block-granular merge
# suites (BlockMerge and LoserTree: refcounted views flowing
# decoder→merger), the snapshot readers-during-ingest suites, and the
# serving layer's concurrent HTTP tests, so source-failure isolation,
# the reorder stage, and the lock-free estimate read path all run under
# the race detector.
race:
	$(GO) test -race -run 'Sharded|Parallel|Pipeline|CountStream|Watermark|Snapshot|Serve|BlockMerge|LoserTree' \
		./internal/core/ ./internal/stream/ ./internal/serve/ ./

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
# reference merge), and FuzzWindowCheckpointDecode (the NSTW
# sliding-window checkpoint decoder: accepted bytes must decode to a
# reachable estimator state and re-encode identically; everything else
# is rejected by name). Entries are package:Target pairs so targets can
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
	internal/window:FuzzWindowCheckpointDecode
fuzz-smoke:
	for t in $(FUZZ_TARGETS); do \
		$(GO) test -run xxx -fuzz "$${t##*:}"'$$' -fuzztime $(FUZZTIME) "./$${t%%:*}/"; \
	done

# A fast sanity pass over every benchmark (100 iterations each), catching
# bit-rot in the bench harness without paying for full measurement runs.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 100x ./internal/bench/

# Full measurement run of the core hot-path and ingestion cells; writes
# BENCH_core.json at the repo root. Commit the result so the perf
# trajectory is tracked.
bench-core:
	STREAMTRI_BENCH_JSON=$(CURDIR)/BENCH_core.json \
		$(GO) test -run TestWriteCoreBenchJSON -v ./internal/bench/

# Bench-regression gate: remeasure every cell into BENCH_fresh.json (not
# committed) and compare edges/sec against the committed baseline with
# generous tolerances (fail < 0.5x, warn < 0.8x) so only architectural
# regressions gate the build.
bench-check:
	STREAMTRI_BENCH_JSON=$(CURDIR)/BENCH_fresh.json \
		$(GO) test -run TestWriteCoreBenchJSON -v ./internal/bench/
	$(GO) run ./cmd/benchcheck -baseline BENCH_core.json -fresh BENCH_fresh.json

# End-to-end smoke of the binaries and examples: generate graphs, stream
# them through trict in both formats (pipelined and buffered paths, the
# single-input default, multi-file parallel ingestion via repeated -i,
# windowed runs over timestamped two-file inputs — the ordered merge —
# and the robustness flags: a corrupt record inside a -max-bad-records
# budget and watermarked -lateness runs), plus the block-structured v2
# binary format end to end (single-stream windowed, sniffed into the
# whole-stream counter with timestamps stripped, an 8-shard windowed
# ordered merge — the block-gallop path — and a windowed merge of a v1
# shard with a v2 shard), and run every example — exercising the
# "[no test files]" packages.
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
	set -e; for ex in examples/*/ ; do echo "== $$ex"; $(GO) run ./$$ex >/dev/null; done

# End-to-end smoke of the trictd serving daemon: two tenants ingesting
# text and binary streams concurrently under estimate polling, then a
# SIGTERM + restart proving checkpoint recovery is bit-identical (plus
# a SIGKILL + restart leg held to the same standard).
smoke-serve:
	GO=$(GO) ./scripts/smoke-serve.sh

# Crash-consistency smoke against the real daemon: SIGKILL at rest must
# leave every estimate byte-identical, and repeated SIGKILLs mid-ingest
# must never lose an acked edge (the WAL ack contract under
# -wal-sync always) nor recover two different states for one position.
smoke-crash:
	GO=$(GO) ./scripts/smoke-crash.sh

# perfbench/ is a module of its own, so the root `go build ./...` never
# compiles it; vet and self-test it here, since it builds on the stream
# package's writers and readers.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Mirrors the per-push GitHub Actions coverage (the matrix/fuzz/bench
# jobs run fmt..bench-smoke plus the smoke and perfbench jobs;
# fuzz-smoke and bench-check are separate because of their runtime).
ci: fmt vet build test race bench-smoke smoke smoke-serve smoke-crash perfbench-test
