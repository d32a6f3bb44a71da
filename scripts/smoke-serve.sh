#!/usr/bin/env bash
# smoke-serve: end-to-end smoke of the trictd serving daemon.
#
# Starts trictd on a free port, creates four tenants — three
# whole-stream, streaming edges concurrently in the text format, the
# plain binary format, and the block-structured v2 binary format
# (sniffed from the same octet-stream content type), plus one
# sliding-window tenant ingesting text — while polling estimates
# mid-ingest, then SIGTERMs the daemon and restarts it from its
# checkpoint directory, asserting the recovered estimate JSON is
# byte-identical to the pre-kill one for every tenant, windowed
# included (the NSTW checkpoint path). This is the durability claim
# the serve tests make, proven against the real binary, real sockets,
# and a real kill. A last leg streams a POST into a fifth, windowed
# tenant from a pipe that stalls mid-batch, and asserts that its
# estimate keeps answering, from the last batch boundary, while the
# POST holds the tenant's ingest lock.
set -euo pipefail

GO=${GO:-go}
WORK=$(mktemp -d)
PID=""
cleanup() {
	[ -n "$PID" ] && kill "$PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT

mkdir -p "$WORK/bin"
$GO build -o "$WORK/bin" ./cmd/trictd ./cmd/graphgen

"$WORK/bin/graphgen" -kind holmekim -n 4000 -mper 3 -ptriad 0.5 -seed 21 >"$WORK/edges-a.txt"
"$WORK/bin/graphgen" -kind holmekim -n 4000 -mper 3 -ptriad 0.5 -seed 22 -format binary >"$WORK/edges-b.bin"
"$WORK/bin/graphgen" -kind holmekim -n 4000 -mper 3 -ptriad 0.5 -seed 26 -format binary2 >"$WORK/edges-c.bin2"

start_daemon() {
	rm -f "$WORK/addr"
	"$WORK/bin/trictd" -addr 127.0.0.1:0 -addr-file "$WORK/addr" \
		-data "$WORK/data" -checkpoint-interval 2s &
	PID=$!
	for _ in $(seq 1 100); do
		if [ -s "$WORK/addr" ] && curl -fsS "http://$(cat "$WORK/addr")/healthz" >/dev/null 2>&1; then
			ADDR=$(cat "$WORK/addr")
			return
		fi
		sleep 0.1
	done
	echo "smoke-serve: daemon did not come up" >&2
	exit 1
}

stop_daemon() {
	kill -TERM "$PID"
	wait "$PID"
	PID=""
}

kill_daemon() {
	kill -KILL "$PID"
	wait "$PID" 2>/dev/null || true
	PID=""
}

start_daemon
echo "smoke-serve: daemon up at $ADDR"

curl -fsS -X PUT -d '{"r":512,"p":2,"seed":21}' "http://$ADDR/v1/counters/ta" >/dev/null
curl -fsS -X PUT -d '{"r":256,"seed":22}' "http://$ADDR/v1/counters/tb" >/dev/null
curl -fsS -X PUT -d '{"r":256,"seed":26}' "http://$ADDR/v1/counters/tc" >/dev/null
curl -fsS -X PUT -d '{"r":256,"window":6000,"seed":27}' "http://$ADDR/v1/counters/tw" >/dev/null

# Ingest all tenants concurrently — text into ta and the windowed tw,
# plain binary into tb, block binary v2 into tc — while this shell
# polls estimates against them; queries during ingest are the serving
# daemon's whole point.
curl -fsS -X POST --data-binary @"$WORK/edges-a.txt" \
	"http://$ADDR/v1/counters/ta/edges" >"$WORK/ingest-a.json" &
INGEST_A=$!
curl -fsS -X POST -H 'Content-Type: application/octet-stream' \
	--data-binary @"$WORK/edges-b.bin" \
	"http://$ADDR/v1/counters/tb/edges" >"$WORK/ingest-b.json" &
INGEST_B=$!
curl -fsS -X POST -H 'Content-Type: application/octet-stream' \
	--data-binary @"$WORK/edges-c.bin2" \
	"http://$ADDR/v1/counters/tc/edges" >"$WORK/ingest-c.json" &
INGEST_C=$!
curl -fsS -X POST --data-binary @"$WORK/edges-a.txt" \
	"http://$ADDR/v1/counters/tw/edges" >"$WORK/ingest-w.json" &
INGEST_W=$!
for _ in $(seq 1 20); do
	curl -fsS "http://$ADDR/v1/counters/ta/estimate" >/dev/null
	curl -fsS "http://$ADDR/v1/counters/tb/estimate" >/dev/null
	curl -fsS "http://$ADDR/v1/counters/tc/estimate" >/dev/null
	curl -fsS "http://$ADDR/v1/counters/tw/estimate" >/dev/null
done
wait "$INGEST_A" "$INGEST_B" "$INGEST_C" "$INGEST_W"
echo "smoke-serve: ingested ta=$(cat "$WORK/ingest-a.json") tb=$(cat "$WORK/ingest-b.json") tc=$(cat "$WORK/ingest-c.json") tw=$(cat "$WORK/ingest-w.json")"

EST_A=$(curl -fsS "http://$ADDR/v1/counters/ta/estimate")
EST_B=$(curl -fsS "http://$ADDR/v1/counters/tb/estimate")
EST_C=$(curl -fsS "http://$ADDR/v1/counters/tc/estimate")
EST_W=$(curl -fsS "http://$ADDR/v1/counters/tw/estimate")
echo "smoke-serve: pre-restart ta: $EST_A"
echo "smoke-serve: pre-restart tb: $EST_B"
echo "smoke-serve: pre-restart tc: $EST_C"
echo "smoke-serve: pre-restart tw: $EST_W"

# SIGTERM takes the final checkpoint on the way out; the restart must
# recover every tenant — the windowed one through its NSTW chain
# checkpoint — bit-identically from the data directory.
stop_daemon
start_daemon
echo "smoke-serve: restarted at $ADDR"

check_recovered() {
	local name=$1 before=$2 after
	after=$(curl -fsS "http://$ADDR/v1/counters/$name/estimate")
	if [ "$before" != "$after" ]; then
		echo "smoke-serve: FAIL — $name estimate changed across restart:" >&2
		echo "  before: $before" >&2
		echo "  after:  $after" >&2
		exit 1
	fi
}
check_recovered ta "$EST_A"
check_recovered tb "$EST_B"
check_recovered tc "$EST_C"
check_recovered tw "$EST_W"

# SIGKILL gets no checkpoint and no goodbye — recovery must rebuild the
# same estimates from the checkpoint generations plus the WAL tail.
kill_daemon
start_daemon
echo "smoke-serve: restarted after SIGKILL at $ADDR"
check_recovered ta "$EST_A"
check_recovered tb "$EST_B"
check_recovered tc "$EST_C"
check_recovered tw "$EST_W"

# Reads never wait on ingestion: r=64 makes the batch size w=512, and
# the body stalls after 2.5 batches, inside the third, so the tenant
# holds two batches while the POST holds its ingest lock.
curl -fsS -X PUT -d '{"r":64,"window":4000,"seed":28}' "http://$ADDR/v1/counters/ts" >/dev/null
head -n 1280 "$WORK/edges-a.txt" >"$WORK/partial.txt"
mkfifo "$WORK/stall"
curl -fsS -X POST -T - "http://$ADDR/v1/counters/ts/edges" <"$WORK/stall" >"$WORK/ingest-s.json" &
INGEST_S=$!
exec 3>"$WORK/stall"
cat "$WORK/partial.txt" >&3
for i in $(seq 1 100); do
	if ! EST_S=$(curl -fsS --max-time 2 "http://$ADDR/v1/counters/ts/estimate"); then
		echo "smoke-serve: FAIL — estimate did not answer within 2s behind a stalled POST" >&2
		exit 1
	fi
	case "$EST_S" in *'"edges":1024,'*) break ;; esac
	if [ "$i" = 100 ]; then
		echo "smoke-serve: FAIL — estimate behind a stalled POST never reached two batches: $EST_S" >&2
		exit 1
	fi
	sleep 0.1
done
curl -fsS --max-time 2 "http://$ADDR/v1/counters" >/dev/null
echo "smoke-serve: estimate behind a stalled POST: $EST_S"
exec 3>&-
wait "$INGEST_S"
case "$(cat "$WORK/ingest-s.json")" in
*'"edges":1280,'*) ;;
*)
	echo "smoke-serve: FAIL — stalled POST answered $(cat "$WORK/ingest-s.json"), want 1280 edges" >&2
	exit 1
	;;
esac

stop_daemon
echo "smoke-serve: OK — recovered estimates bit-identical across restart (SIGTERM and SIGKILL, windowed included); reads answered behind a stalled POST"
