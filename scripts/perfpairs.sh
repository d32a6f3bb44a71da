#!/usr/bin/env bash
# perfpairs: compare two checkouts on the repo benchmark in interleaved
# pairs, as BENCHMARK.json's end-to-end metrics are judged.
#
#   bash scripts/perfpairs.sh <parent checkout> <change checkout> <workload> <pairs> <first seed>
#
# Pair i runs seed <first seed>+i-1 on both checkouts, each through its
# own perfbench/run.sh --seconds 15 --trace 0, so each side builds
# trictd from its own sources into its own .bench_build/. The parent
# runs first on odd pairs and the change on even ones, so the host's
# drift lands on both sides. Each run's last line, its JSON result, is
# printed as the run ends.
#
# Then, for each end-to-end metric of the parent's BENCHMARK.json, it
# prints each side's median and quartiles (Python's
# statistics.quantiles, the "exclusive" method, as perfbench's own
# quartiles), the change/parent median ratio, the pairs the change won
# in the metric's "better" direction (ties count for neither side),
# whether that is a gain — the change won at least nine tenths of the
# pairs and the medians differ by more than the parent's interquartile
# range — and whether the change's median stays inside the metric's
# bound. Last it lists every run that printed correct:false or failed
# operations, or printed no result at all.
set -euo pipefail

if [ $# -ne 5 ]; then
	echo "usage: $0 <parent checkout> <change checkout> <workload> <pairs> <first seed>" >&2
	exit 2
fi
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
WORKLOAD=$3
PAIRS=$4
FIRST=$5

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# run <side> <checkout> <pair> <seed> appends "<side> <pair> <seed> <last line>"
# to $WORK/runs, or "<side> <pair> <seed> -" when the run printed nothing.
run() {
	local log="$WORK/$1-$3.log" last
	bash "$2/perfbench/run.sh" --workload "$WORKLOAD" --seed "$4" --seconds 15 --trace 0 >"$log" 2>&1 || true
	last=$(tail -n 1 "$log")
	case $last in
	'{'*) ;;
	*)
		echo "$1 pair $3 seed $4: no result; the run's last lines:" >&2
		tail -n 5 "$log" >&2
		last=-
		;;
	esac
	echo "$1 $3 $4 $last" >>"$WORK/runs"
	echo "pair $3 seed $4 $1: $last"
}

for ((i = 1; i <= PAIRS; i++)); do
	seed=$((FIRST + i - 1))
	if ((i % 2 == 1)); then
		run parent "$PARENT" "$i" "$seed"
		run change "$CHANGE" "$i" "$seed"
	else
		run change "$CHANGE" "$i" "$seed"
		run parent "$PARENT" "$i" "$seed"
	fi
done

# The end-to-end metrics, one "name better bound" line each.
sed -n '/"end_to_end"/,/\]/p' "$PARENT/BENCHMARK.json" |
	sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p' >"$WORK/metrics"

echo
echo "$WORKLOAD: $PAIRS pairs, seeds $FIRST-$((FIRST + PAIRS - 1)), parent $PARENT, change $CHANGE"
awk -v PAIRS="$PAIRS" '
function sortv(a, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
# quart sets Q[1..3] to the exclusive-method quartiles of the n sorted values in s.
function quart(s, n,    j, m, idx, delta) {
	for (j = 1; j <= 3; j++) {
		if (n == 1) { Q[j] = s[1]; continue }
		m = n + 1
		idx = int(j * m / 4)
		if (idx < 1) idx = 1
		if (idx > n - 1) idx = n - 1
		delta = j * m - idx * 4
		Q[j] = (s[idx] * (4 - delta) + s[idx+1] * delta) / 4
	}
}
FNR == NR { name[++nm] = $1; better[nm] = $2; bound[nm] = $3; next }
{
	side = $1; pair = $2
	line = $0; sub(/^[^ ]+ [^ ]+ [^ ]+ /, "", line)
	if (line == "-") { bad[++nbad] = side " pair " pair " seed " $3 ": no result"; next }
	if (line !~ /"correct":true/ || line !~ /"failed":0[,}]/) bad[++nbad] = side " pair " pair " seed " $3 ": " line
	for (k = 1; k <= nm; k++) {
		rest = line
		if (sub(".*\"" name[k] "\":\\{\"value\":", "", rest)) {
			sub(/[,}].*/, "", rest)
			val[side, k, pair] = rest + 0; have[side, k, pair] = 1
		}
	}
}
END {
	for (k = 1; k <= nm; k++) {
		np = nc = wins = 0
		for (p = 1; p <= PAIRS; p++) {
			if ((("parent", k, p) in have)) ps[++np] = val["parent", k, p]
			if ((("change", k, p) in have)) cs[++nc] = val["change", k, p]
			if (!((("parent", k, p) in have) && (("change", k, p) in have))) continue
			d = val["change", k, p] - val["parent", k, p]
			if ((better[k] == "higher" && d > 0) || (better[k] == "lower" && d < 0)) wins++
		}
		if (np == 0 || nc == 0) { printf "%s: no runs\n", name[k]; continue }
		sortv(ps, np); quart(ps, np); p1 = Q[1]; pm = Q[2]; p3 = Q[3]
		sortv(cs, nc); quart(cs, nc); c1 = Q[1]; cm = Q[2]; c3 = Q[3]
		ratio = pm != 0 ? cm / pm : 0
		gap = better[k] == "higher" ? cm - pm : pm - cm
		gain = (wins >= 0.9 * PAIRS && gap > p3 - p1) ? "yes" : "no"
		inside = (better[k] == "higher" ? cm >= pm * (1 - bound[k]) : cm <= pm * (1 + bound[k])) ? "yes" : "NO"
		printf "%s (%s is better, bound %s)\n", name[k], better[k], bound[k]
		printf "  parent median %.6g  quartiles %.6g-%.6g  (%d runs)\n", pm, p1, p3, np
		printf "  change median %.6g  quartiles %.6g-%.6g  (%d runs)\n", cm, c1, c3, nc
		printf "  change/parent x%.4f; change better in %d of %d pairs; gain: %s; inside bound: %s\n", ratio, wins, PAIRS, gain, inside
	}
	if (nbad == 0) print "every run printed correct:true with 0 failed"
	for (i = 1; i <= nbad; i++) print "BAD RUN " bad[i]
}' "$WORK/metrics" "$WORK/runs"
