#!/bin/sh
# server_smoke.sh — end-to-end smoke test of the hardened run server.
#
# Drives real nocserved processes over HTTP and checks the four
# hardening stories the unit tests pin in-process:
#
#   1. chaos soak: nocload succeeds against a server with injected
#      worker panics and slow/corrupt disk reads (the client retries,
#      the server isolates crashes, corrupt cache reads degrade to
#      misses);
#   2. warm cache-hit path: an identical repeat request is answered
#      from the cache with zero simulation work (from_cache true);
#   3. graceful drain: SIGTERM while a long run is in flight cancels it
#      after the drain grace and answers its client 503 shutting_down
#      with Retry-After;
#   4. retry-after-restart equivalence: a restarted server on the same
#      -cachedir answers the retried request with the same fingerprint
#      as an uninterrupted -nocache regeneration of the same experiment.
#
# The in-process acceptance tests (go test -race ./internal/serve ...)
# run as a separate CI step; this script is pure black-box.
set -eu
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'kill $(cat "$work"/*.pid 2>/dev/null) 2>/dev/null || true; rm -rf "$work"' EXIT

servebin="$work/nocserved"
loadbin="$work/nocload"
expbin="$work/experiments"
go build -o "$servebin" ./cmd/nocserved
go build -o "$loadbin" ./cmd/nocload
go build -o "$expbin" ./cmd/experiments

# start_server <name> <args...> — launches nocserved on a free port and
# sets $url; the PID is recorded for cleanup and kill-phases.
start_server() {
	name=$1
	shift
	"$servebin" -addr 127.0.0.1:0 "$@" 2> "$work/$name.log" &
	echo $! > "$work/$name.pid"
	i=0
	until url=$(sed -n 's|.*listening on \(http://[0-9.:]*\).*|\1|p' "$work/$name.log" | head -1) && [ -n "$url" ]; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "server $name did not start"; cat "$work/$name.log"; exit 1; }
		sleep 0.1
	done
}

field() { # field <json-file> <name> — extract a scalar JSON field
	sed -n "s/.*\"$2\"[[:space:]]*:[[:space:]]*\"\{0,1\}\([^\",}]*\)\"\{0,1\}[,}].*/\1/p" "$1" | head -1
}

echo "== 1. chaos soak: worker panics + slow/corrupt disk reads =="
start_server chaos -cachedir "$work/cache-chaos" \
	-chaos 'worker.panic=p0.3+panic+x3,disk.load.slow=d20ms+p0.5,disk.load.corrupt=corrupt+p0.3'
"$loadbin" -url "$url" -n 12 -c 3 -exp fig1,fig2 -scale quick -tenants a,b,c
kill "$(cat "$work/chaos.pid")" 2>/dev/null || true

echo "== 2. warm cache-hit path =="
start_server warm -cachedir "$work/cache-warm"
req='{"experiment":"fig1","scale":"quick","tenant":"smoke"}'
curl -sf "$url/run" -d "$req" > "$work/cold.json"
curl -sf "$url/run" -d "$req" > "$work/warm.json"
[ "$(field "$work/warm.json" from_cache)" = "true" ] || {
	echo "warm repeat was not served from cache"; cat "$work/warm.json"; exit 1
}
[ "$(field "$work/cold.json" fingerprint)" = "$(field "$work/warm.json" fingerprint)" ] || {
	echo "warm fingerprint differs from cold"; exit 1
}
curl -sf "$url/metrics" | grep -q 'serve_warm_requests_total 1' || {
	echo "serve_warm_requests_total not incremented"; exit 1
}
kill "$(cat "$work/warm.pid")" 2>/dev/null || true

echo "== 3. graceful drain: SIGTERM cancels the in-flight run =="
start_server drain -cachedir "$work/cache-drain" -drain-grace 100ms
# A full-scale fig1 run takes ~1.2s; SIGTERM lands mid-run.
longreq='{"experiment":"fig1","scale":"full","tenant":"smoke"}'
curl -s -D "$work/cancelled.hdr" "$url/run" -d "$longreq" > "$work/cancelled.json" &
curlpid=$!
sleep 0.4
kill -TERM "$(cat "$work/drain.pid")"
wait "$curlpid" || true
wait "$(cat "$work/drain.pid")" 2>/dev/null || true
grep -q '"error":"shutting_down"' "$work/cancelled.json" &&
	grep -q '^HTTP/[0-9.]* 503' "$work/cancelled.hdr" &&
	grep -qi '^Retry-After:' "$work/cancelled.hdr" || {
	echo "draining server did not answer 503 shutting_down with Retry-After"
	cat "$work/cancelled.hdr" "$work/cancelled.json"; exit 1
}

echo "== 4. retry-after-restart equivalence =="
start_server retry -cachedir "$work/cache-drain"
curl -sf "$url/run" -d "$longreq" > "$work/retried.json"
# Control: uninterrupted regeneration with both cache tiers off.
"$expbin" -exp fig1 -scale full -nocache -manifest "$work/ctrl.json" -out /dev/null 2>/dev/null
retried_fp=$(field "$work/retried.json" fingerprint)
ctrl_fp=$(sed -n 's/.*"fig1"[[:space:]]*:[[:space:]]*"\([0-9a-f]*\)".*/\1/p' "$work/ctrl.json" | head -1)
[ -n "$retried_fp" ] && [ "$retried_fp" = "$ctrl_fp" ] || {
	echo "retried fingerprint $retried_fp != uninterrupted control $ctrl_fp"; exit 1
}
kill "$(cat "$work/retry.pid")" 2>/dev/null || true

echo "server smoke: all phases passed"
