#!/usr/bin/env bash
# perfpairs-test: a self-test of scripts/perfpairs.sh, which every
# end-to-end perf claim rests on.
#
#   bash scripts/perfpairs-test.sh
#
# It builds two stub checkouts under a temp dir. Each holds this repo's
# BENCHMARK.json and a perfbench/run.sh that prints a canned result line
# for each --seed, so the script's arithmetic and verdicts can be
# checked against numbers worked out by hand. Two runs of perfpairs.sh:
#
#   - 10 clean pairs (seeds 1-10). peak_rss_mb is lower on the change in
#     10 of 10 pairs, by more than the parent's interquartile range: a
#     gain. setup_s is lower in 10 of 10 too, but by less than that
#     range: no gain. edges_per_cpu_s is mixed, the change higher in 5
#     of 10, on the change's values 1..10, whose exclusive-method
#     quartiles are 2.75, 5.5 and 8.25.
#   - 2 pairs with bad runs (seeds 11-12): the change's seed-11 run
#     prints correct:false, and the parent's seed-12 run prints nothing,
#     so the change can win at most 1 of the 2 pairs: no gain, however
#     wide the gap. edges_per_cpu_s reads half the parent's and
#     setup_s ten times: both outside their bounds.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# result <edges_per_cpu_s> <peak_rss_mb> <setup_s> [correct] prints a
# result line in perfbench's format.
result() {
	printf '{"correct":%s,"attempted":10,"failed":0,"metrics":{"edges_per_cpu_s":{"value":%s,"unit":"1/s"},"peak_rss_mb":{"value":%s,"unit":"MiB"},"setup_s":{"value":%s,"unit":"s"}}}\n' \
		"${4:-true}" "$1" "$2" "$3"
}

# stub <dir> writes a checkout whose perfbench/run.sh prints a build
# line, then the line of <dir>/results that follows "<seed> ", if any.
stub() {
	mkdir -p "$1/perfbench"
	cp "$root/BENCHMARK.json" "$1/"
	cat >"$1/perfbench/run.sh" <<'EOF'
while [ $# -gt 0 ]; do
	if [ "$1" = --seed ]; then seed=$2; fi
	shift
done
echo "stub run of seed $seed"
sed -n "s/^$seed //p" "$(dirname "$0")/../results"
EOF
}

stub "$tmp/parent"
stub "$tmp/change"
for i in 1 2 3 4 5 6 7 8 9 10; do
	# The parent's edges_per_cpu_s is half a unit above the change's on
	# odd seeds and half a unit below on even ones; its peak_rss_mb is a
	# unit above, and its setup_s a tenth.
	if ((i % 2 == 1)); then eps=$i.5; else eps=$((i - 1)).5; fi
	if ((i == 1)); then setup=0.9; else setup=1.$((i - 2)); fi
	echo "$i $(result "$eps" "19.$((i - 1))" "1.$((i - 1))")" >>"$tmp/parent/results"
	echo "$i $(result "$i" "18.$((i - 1))" "$setup")" >>"$tmp/change/results"
done
echo "11 $(result 1 19 0.1)" >>"$tmp/parent/results"
echo "11 $(result 0.5 18 1 false)" >>"$tmp/change/results"
echo "12 $(result 0.5 18 1)" >>"$tmp/change/results"

fail=0
# expect <output file> <line>: the output must hold the line exactly.
expect() {
	if ! grep -qxF -- "$2" "$1"; then
		echo "perfpairs-test: missing line: $2" >&2
		fail=1
	fi
}

bash "$root/scripts/perfpairs.sh" "$tmp/parent" "$tmp/change" stub 10 1 >"$tmp/clean.out" 2>&1
cat "$tmp/clean.out"
# Parent edges_per_cpu_s: 1.5 1.5 3.5 3.5 ... 9.5 9.5, quartiles 3, 5.5, 8.
expect "$tmp/clean.out" "edges_per_cpu_s (higher is better, bound 0.25)"
expect "$tmp/clean.out" "  parent median 5.5  quartiles 3-8  (10 runs)"
expect "$tmp/clean.out" "  change median 5.5  quartiles 2.75-8.25  (10 runs)"
expect "$tmp/clean.out" "  change/parent x1.0000; change better in 5 of 10 pairs; gain: no; inside bound: yes"
# Parent setup_s 1.0..1.9: quartiles 1.175 and 1.725, an IQR of 0.55
# against a gap of 0.1.
expect "$tmp/clean.out" "  parent median 1.45  quartiles 1.175-1.725  (10 runs)"
expect "$tmp/clean.out" "  change/parent x0.9310; change better in 10 of 10 pairs; gain: no; inside bound: yes"
# Parent peak_rss_mb 19.0..19.9: the same IQR against a gap of 1.
expect "$tmp/clean.out" "  parent median 19.45  quartiles 19.175-19.725  (10 runs)"
expect "$tmp/clean.out" "  change median 18.45  quartiles 18.175-18.725  (10 runs)"
expect "$tmp/clean.out" "  change/parent x0.9486; change better in 10 of 10 pairs; gain: yes; inside bound: yes"
expect "$tmp/clean.out" "every run printed correct:true with 0 failed"

bash "$root/scripts/perfpairs.sh" "$tmp/parent" "$tmp/change" stub 2 11 >"$tmp/bad.out" 2>&1
cat "$tmp/bad.out"
expect "$tmp/bad.out" "  change/parent x0.5000; change better in 0 of 2 pairs; gain: no; inside bound: NO"
expect "$tmp/bad.out" "  change/parent x0.9474; change better in 1 of 2 pairs; gain: no; inside bound: yes"
expect "$tmp/bad.out" "  change/parent x10.0000; change better in 0 of 2 pairs; gain: no; inside bound: NO"
expect "$tmp/bad.out" "BAD RUN change pair 1 seed 11: $(result 0.5 18 1 false)"
expect "$tmp/bad.out" "BAD RUN parent pair 2 seed 12: no result"

if ((fail)); then
	echo "perfpairs-test: FAIL" >&2
	exit 1
fi
echo "perfpairs-test: ok"
