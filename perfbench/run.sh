#!/usr/bin/env bash
# Builds trictd and the benchmark from this checkout's sources, then runs
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload small-posts --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries, the per-seed input
# cache and the run scratch directories.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
go build -o "$out/bin/trictd" ./cmd/trictd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -trictd "$out/bin/trictd" -work "$out/perfbench" "$@"
