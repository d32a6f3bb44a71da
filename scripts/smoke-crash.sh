#!/usr/bin/env bash
# smoke-crash: crash-consistency smoke of the trictd daemon against a
# real binary, real sockets, and real SIGKILL.
#
# Leg 1 (kill at rest): ingest into a whole-stream and a sliding-window
# tenant, SIGKILL the daemon with no request in flight, restart, and
# assert every estimate is byte-identical — nothing acked may move.
#
# Leg 2 (kill mid-ingest): repeatedly start an ingest, SIGKILL the
# daemon partway through the body, and restart. After every recovery the
# tenant's edge count must cover the last acked total (the WAL ack
# contract under -wal-sync always), and whenever recovery lands exactly
# on a previously observed position its estimate must be byte-identical
# to the one observed there — recovery is a prefix of the same stream,
# never a divergent state.
#
# Leg 3 (abandoned POST, then kill): stream a body of about three
# batches from a pipe that stalls after two and a half, kill the client
# mid-body, read the estimate, SIGKILL the daemon and restart it. The
# tenant must hold every edge sent, the half batch decoded before the
# read error included, and the estimate must come back byte-identical:
# the handler logs each batch just before absorbing it, so the failed
# request leaves the WAL exactly at the counter and replay rebuilds the
# same state.
set -euo pipefail

GO=${GO:-go}
WORK=$(mktemp -d)
PID=""
cleanup() {
	[ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT

mkdir -p "$WORK/bin"
$GO build -o "$WORK/bin" ./cmd/trictd ./cmd/graphgen

"$WORK/bin/graphgen" -kind holmekim -n 3000 -mper 3 -ptriad 0.5 -seed 31 >"$WORK/edges-rest.txt"
"$WORK/bin/graphgen" -kind holmekim -n 6000 -mper 3 -ptriad 0.5 -seed 32 >"$WORK/edges-crash.txt"
split -n l/6 "$WORK/edges-crash.txt" "$WORK/chunk-"

start_daemon() {
	# Extra arguments are trictd flags; a repeated flag overrides the
	# default given here.
	rm -f "$WORK/addr"
	"$WORK/bin/trictd" -addr 127.0.0.1:0 -addr-file "$WORK/addr" \
		-data "$WORK/data" -checkpoint-interval 1s -wal-sync always "$@" &
	PID=$!
	for _ in $(seq 1 100); do
		if [ -s "$WORK/addr" ] && curl -fsS "http://$(cat "$WORK/addr")/healthz" >/dev/null 2>&1; then
			ADDR=$(cat "$WORK/addr")
			return
		fi
		sleep 0.1
	done
	echo "smoke-crash: daemon did not come up" >&2
	exit 1
}

kill_daemon() {
	kill -KILL "$PID"
	wait "$PID" 2>/dev/null || true
	PID=""
}

edges_of() {
	# Pull the "edges" field out of an estimate JSON body.
	sed -n 's/.*"edges":\([0-9]*\).*/\1/p' <<<"$1"
}

wait_edges() {
	# Poll tenant $1's estimate until it reflects $2 edges.
	for _ in $(seq 1 100); do
		if [ "$(edges_of "$(curl -fsS "http://$ADDR/v1/counters/$1/estimate")")" = "$2" ]; then
			return
		fi
		sleep 0.1
	done
	echo "smoke-crash: FAIL — tenant $1 never reached $2 edges" >&2
	exit 1
}

# ---- Leg 1: SIGKILL at rest -------------------------------------------
start_daemon
echo "smoke-crash: daemon up at $ADDR"
curl -fsS -X PUT -d '{"r":256,"p":2,"seed":31}' "http://$ADDR/v1/counters/cs" >/dev/null
curl -fsS -X PUT -d '{"r":256,"window":5000,"seed":33}' "http://$ADDR/v1/counters/cw" >/dev/null
curl -fsS -X POST --data-binary @"$WORK/edges-rest.txt" "http://$ADDR/v1/counters/cs/edges" >/dev/null
curl -fsS -X POST --data-binary @"$WORK/edges-rest.txt" "http://$ADDR/v1/counters/cw/edges" >/dev/null
EST_S=$(curl -fsS "http://$ADDR/v1/counters/cs/estimate")
EST_W=$(curl -fsS "http://$ADDR/v1/counters/cw/estimate")
kill_daemon
start_daemon
for pair in "cs|$EST_S" "cw|$EST_W"; do
	name=${pair%%|*} before=${pair#*|}
	after=$(curl -fsS "http://$ADDR/v1/counters/$name/estimate")
	if [ "$before" != "$after" ]; then
		echo "smoke-crash: FAIL — $name estimate changed across SIGKILL at rest:" >&2
		echo "  before: $before" >&2
		echo "  after:  $after" >&2
		exit 1
	fi
done
echo "smoke-crash: leg 1 OK — estimates byte-identical across SIGKILL at rest"

# ---- Leg 2: SIGKILL mid-ingest ----------------------------------------
curl -fsS -X PUT -d '{"r":256,"p":2,"seed":32}' "http://$ADDR/v1/counters/cr" >/dev/null
ACKED=0
# seen[pos] = the estimate JSON observed at stream position pos; any
# later recovery landing on pos must reproduce it byte for byte.
declare -A seen
seen[0]=$(curl -fsS "http://$ADDR/v1/counters/cr/estimate")

iter=0
for chunk in "$WORK"/chunk-*; do
	iter=$((iter + 1))
	curl -fsS -X POST --data-binary @"$chunk" \
		"http://$ADDR/v1/counters/cr/edges" >"$WORK/ingest.json" 2>/dev/null &
	INGEST=$!
	# Vary the kill point across iterations (including "almost
	# immediately" and "probably after the ack").
	sleep "0.$(((iter * 7) % 10))"
	kill_daemon
	wait "$INGEST" 2>/dev/null || true

	start_daemon
	after=$(curl -fsS "http://$ADDR/v1/counters/cr/estimate")
	pos=$(edges_of "$after")
	if [ "$pos" -lt "$ACKED" ]; then
		echo "smoke-crash: FAIL — recovered to $pos edges, below the acked $ACKED" >&2
		exit 1
	fi
	if [ -n "${seen[$pos]:-}" ] && [ "${seen[$pos]}" != "$after" ]; then
		echo "smoke-crash: FAIL — position $pos recovered with a different estimate:" >&2
		echo "  before: ${seen[$pos]}" >&2
		echo "  after:  $after" >&2
		exit 1
	fi
	seen[$pos]=$after
	# Whatever recovery rebuilt is durable now: it is the new floor.
	ACKED=$pos
	echo "smoke-crash: iter $iter — recovered at $pos edges (floor $ACKED)"
done

# Let the remainder land cleanly and make sure the tenant still ingests
# and checkpoints after the abuse.
curl -fsS -X POST --data-binary @"$WORK/chunk-aa" "http://$ADDR/v1/counters/cr/edges" >/dev/null
curl -fsS -X POST "http://$ADDR/v1/checkpoint" >/dev/null
FINAL=$(curl -fsS "http://$ADDR/v1/counters/cr/estimate")
kill_daemon
start_daemon
AFTER=$(curl -fsS "http://$ADDR/v1/counters/cr/estimate")
if [ "$FINAL" != "$AFTER" ]; then
	echo "smoke-crash: FAIL — final estimate changed across SIGKILL:" >&2
	echo "  before: $FINAL" >&2
	echo "  after:  $AFTER" >&2
	exit 1
fi
kill_daemon
echo "smoke-crash: leg 2 OK — acked edges survived $iter mid-ingest SIGKILLs; recovered positions prefix-consistent"

# ---- Leg 3: abandoned POST, then SIGKILL -------------------------------
# No timed checkpoint may run, so recovery replays the failed POST's
# batches from the WAL instead of restoring them from a checkpoint.
start_daemon -checkpoint-interval 1h
# r=256 makes the batch size w=2048; the body stalls after 2.5 batches.
curl -fsS -X PUT -d '{"r":256,"p":2,"seed":34}' "http://$ADDR/v1/counters/ca" >/dev/null
head -n 5120 "$WORK/edges-crash.txt" >"$WORK/partial.txt"
mkfifo "$WORK/stall"
curl -sS -X POST -T - "http://$ADDR/v1/counters/ca/edges" <"$WORK/stall" >/dev/null 2>&1 &
CURL=$!
exec 3>"$WORK/stall"
cat "$WORK/partial.txt" >&3
wait_edges ca 4096
sleep 0.5 # let curl send the half batch it holds
kill -KILL "$CURL"
wait "$CURL" 2>/dev/null || true
exec 3>&-
# An empty POST queues behind the abandoned one on the tenant lock, so
# once it answers the abandoned handler has finished.
curl -fsS -X POST --data-binary @/dev/null "http://$ADDR/v1/counters/ca/edges" >/dev/null
E=$(curl -fsS "http://$ADDR/v1/counters/ca/estimate")
if [ "$(edges_of "$E")" != 5120 ]; then
	echo "smoke-crash: FAIL — abandoned POST left $(edges_of "$E") edges, want the 5120 sent" >&2
	exit 1
fi
kill_daemon
start_daemon
AFTER=$(curl -fsS "http://$ADDR/v1/counters/ca/estimate")
if [ "$E" != "$AFTER" ]; then
	echo "smoke-crash: FAIL — estimate after an abandoned POST changed across SIGKILL:" >&2
	echo "  before: $E" >&2
	echo "  after:  $AFTER" >&2
	exit 1
fi
kill_daemon
echo "smoke-crash: OK — abandoned POST's 5120 edges recovered byte-identically across SIGKILL"
