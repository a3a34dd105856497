#!/bin/sh
# bench.sh — run the simulator micro-benchmarks and record the results.
#
# Runs every benchmark in the repo root (BenchmarkNetworkCycle,
# BenchmarkHeteroNetworkCycle, BenchmarkCMPCycle, ...) with -benchmem and
# -count 5, appends the raw `go test` output (under a dated header) to
# BENCH_noc.txt, and appends the per-benchmark medians as one dated entry
# to the BENCH_noc.json history — so the performance trajectory across
# commits stays visible instead of each run overwriting the last. The
# fault-injection sweep (BenchmarkFaultSweep: the full degradation
# experiment at bench scale) is additionally surfaced as a per-entry
# "fault_sweep_ns_per_op" field so fault-stack regressions are one jq
# expression away (`jq '.[-1].fault_sweep_ns_per_op' BENCH_noc.json`).
#
# The checkpoint stack is surfaced the same way: "ckpt_restore_ns_per_op"
# (BenchmarkCheckpointRestore: deserializing a mid-run network state) and
# "warm_regen_speedup" (a cold-vs-warm double run of cmd/experiments in
# fresh processes sharing one initially-empty disk cache; the script fails
# if the two outputs are not byte-identical).
#
# Mesh scaling is tracked by two per-entry fields:
# "table_build_1024_ns_per_op" (BenchmarkTableBuild1024: full fault-free
# route-table construction for a 32x32 mesh) and "cycle_ns_per_router_32x32"
# (BenchmarkNetworkCycle32x32 divided by 1024 routers) — the pair that must
# stay flat-ish as the engine scales, not just the 8x8 numbers.
#
# The run server is measured end to end: one nocserved instance on a
# loopback port takes a small nocload round (cold then warm repeats) and
# the SLO report's latency percentiles and cache hit ratio land as
# per-entry "serve_p50_ms", "serve_p99_ms" and "serve_hit_ratio" fields —
# the service-level numbers that admission control and the warm cache
# path are supposed to keep healthy.
#
# The streaming trace pipeline lands as two per-entry fields:
# "trace_decode_entries_per_sec" (BenchmarkTraceDecode/next: HNTR2 replay
# throughput through Next — the benchmark decodes 65536 entries per op,
# so the rate is 65536e9/ns_per_op) and "warm_restore_seek_ns_per_op"
# (BenchmarkWarmRestoreSeek: restoring a CMP warm checkpoint whose trace
# readers are file-backed chunked traces, repositioned by SeekTo instead
# of entry replay).
#
# The design-space search lands as "dse_evals_per_sec" (effective
# candidate-evaluation throughput of BenchmarkDSEGeneration, cache answers
# included) and "dse_cache_hit_ratio" (the fraction of evaluations answered
# without a simulation — the cross-run dedup rate the search banks on).
#
# The observability benches (BenchmarkNetworkCycleTraced/-Sampled) are
# folded into two per-entry overhead fields: "tracer_overhead_pct" (cost of
# a full-detail flit tracer vs the bare kernel) and "metrics_overhead_pct"
# (cost of registry + attached time-series sampler), so obs-layer
# regressions are as visible as kernel regressions.
#
# The always-on latency attribution path is bounded the same way:
# "attribution_overhead_pct" compares BenchmarkNetworkCycle (attribution
# on, its default) against BenchmarkNetworkCycleNoAttr (counters off) —
# the budget is 5%, checked in smoke mode.
#
# BENCH_noc.json is a JSON array, oldest entry first, one compact object
# per line. A legacy single-object file (the pre-history format) is folded
# in as the first entry on the next run.
#
# Usage: scripts/bench.sh [output.json]    (default BENCH_noc.json)
#        scripts/bench.sh -smoke
#
# -smoke is the CI mode: it runs only the kernel + observability cycle
# benchmarks (short, fixed iteration count), prints the two overhead
# percentages, fails if sampling overhead exceeds 25% or tracing overhead
# exceeds 200% (generous bounds — CI machines are noisy; trend numbers come
# from full runs), and records nothing.
set -eu
cd "$(dirname "$0")/.."

smoke=0
if [ "${1:-}" = "-smoke" ]; then
	smoke=1
	shift
fi

out=${1:-BENCH_noc.json}
raw=${out%.json}.txt

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
date=$(date -u +%Y-%m-%dT%H:%M:%SZ)

run=$(mktemp)
trap 'rm -f "$run"' EXIT

if [ "$smoke" = 1 ]; then
	go test -run '^$' \
		-bench 'BenchmarkNetworkCycle$|BenchmarkNetworkCycleNoAttr$|BenchmarkNetworkCycleTraced$|BenchmarkNetworkCycleSampled$|BenchmarkCMPCycle$' \
		-benchtime 2000x -count 5 -benchmem . | tee "$run"
	awk '
	/^BenchmarkNetworkCycle-|^BenchmarkNetworkCycle /        { base = base " " $3 }
	/^BenchmarkNetworkCycleNoAttr/                           { na = na " " $3 }
	/^BenchmarkNetworkCycleTraced/                           { tr = tr " " $3 }
	/^BenchmarkNetworkCycleSampled/                          { sm = sm " " $3 }
	function median(s,   v, m, i, j, t) {
		m = split(s, v, " ")
		for (i = 2; i <= m; i++)
			for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) {
				t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
			}
		return (m % 2) ? v[(m + 1) / 2] : (v[m / 2] + v[m / 2 + 1]) / 2
	}
	END {
		b = median(base)
		if (b <= 0) { print "smoke: no baseline benchmark output" > "/dev/stderr"; exit 1 }
		trp = 100 * (median(tr) - b) / b
		smp = 100 * (median(sm) - b) / b
		nab = median(na)
		atp = (nab > 0) ? 100 * (b - nab) / nab : 0
		printf "tracer_overhead_pct       %.1f (bound 200)\n", trp
		printf "metrics_overhead_pct      %.1f (bound 25)\n", smp
		printf "attribution_overhead_pct  %.1f (bound 5)\n", atp
		if (trp > 200 || smp > 25) { print "smoke: observability overhead out of bounds" > "/dev/stderr"; exit 1 }
		if (atp > 5) { print "smoke: attribution overhead above 5% budget" > "/dev/stderr"; exit 1 }
	}' "$run"
	exit 0
fi

go test -run '^$' -bench . -benchmem -count 5 . | tee "$run"

{
	echo "### $date commit $commit"
	cat "$run"
	echo
} >> "$raw"

# Cold-vs-warm regeneration: the same figure set twice, in fresh processes,
# sharing one initially-empty disk cache. The warm run must render
# byte-identical markdown (the cache is an optimization, never an input)
# and its speedup is the headline number of the persistent run cache.
expbin=$(mktemp)
cachedir=$(mktemp -d)
cold_out=$(mktemp)
warm_out=$(mktemp)
trap 'rm -rf "$run" "$expbin" "$cachedir" "$cold_out" "$warm_out"' EXIT
go build -o "$expbin" ./cmd/experiments
t0=$(date +%s%N)
"$expbin" -exp fig7,fig10 -scale quick -cachedir "$cachedir" -manifest none -out "$cold_out" 2>/dev/null
t1=$(date +%s%N)
"$expbin" -exp fig7,fig10 -scale quick -cachedir "$cachedir" -manifest none -out "$warm_out" 2>/dev/null
t2=$(date +%s%N)
cmp -s "$cold_out" "$warm_out" || {
	echo "bench: warm regeneration output differs from cold run" >&2
	exit 1
}
speedup=$(awk -v c=$((t1 - t0)) -v w=$((t2 - t1)) \
	'BEGIN { printf "%.1f", c / (w > 0 ? w : 1) }')
echo "warm_regen_speedup ${speedup}x (cold $(((t1 - t0) / 1000000))ms, warm $(((t2 - t1) / 1000000))ms)" >&2

# Service SLO round: nocserved on a loopback port, nocload driving enough
# repeats that the warm cache path shows up in the hit ratio. The server's
# log and the JSON report are temp files; the three headline fields are
# folded into the history entry below.
servebin=$(mktemp)
loadbin=$(mktemp)
servelog=$(mktemp)
servejson=$(mktemp)
servecache=$(mktemp -d)
trap 'rm -rf "$run" "$expbin" "$cachedir" "$cold_out" "$warm_out" "$servebin" "$loadbin" "$servelog" "$servejson" "$servecache"' EXIT
go build -o "$servebin" ./cmd/nocserved
go build -o "$loadbin" ./cmd/nocload
"$servebin" -addr 127.0.0.1:0 -cachedir "$servecache" 2> "$servelog" &
servepid=$!
i=0
until serveurl=$(sed -n 's|.*listening on \(http://[0-9.:]*\).*|\1|p' "$servelog" | head -1) && [ -n "$serveurl" ]; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "bench: nocserved did not start" >&2; cat "$servelog" >&2; exit 1; }
	sleep 0.1
done
"$loadbin" -url "$serveurl" -n 16 -c 4 -exp fig1,fig2 -scale quick -json > "$servejson"
kill "$servepid" 2>/dev/null || true
serve_field() {
	sed -n "s/.*\"$1\"[[:space:]]*:[[:space:]]*\([0-9.eE+-]*\).*/\1/p" "$servejson" | head -1
}
serve_p50=$(serve_field serve_p50_ms)
serve_p99=$(serve_field serve_p99_ms)
serve_hit=$(serve_field serve_hit_ratio)
echo "serve_p50_ms ${serve_p50}  serve_p99_ms ${serve_p99}  serve_hit_ratio ${serve_hit}" >&2

entry=$(awk -v commit="$commit" -v date="$date" -v speedup="$speedup" \
	-v serve_p50="$serve_p50" -v serve_p99="$serve_p99" -v serve_hit="$serve_hit" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
	ns[name] = ns[name] " " $3
	for (i = 4; i <= NF; i++) {
		if ($(i+1) == "B/op") b[name] = b[name] " " $i
		if ($(i+1) == "allocs/op") a[name] = a[name] " " $i
		if ($(i+1) == "evals/s") ev[name] = ev[name] " " $i
		if ($(i+1) == "cache_hit_ratio") hr[name] = hr[name] " " $i
	}
	if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
function median(s,   v, m) {
	m = split(s, v, " ")
	asort_simple(v, m)
	return (m % 2) ? v[(m + 1) / 2] : (v[m / 2] + v[m / 2 + 1]) / 2
}
function asort_simple(v, m,   i, j, t) {
	for (i = 2; i <= m; i++)
		for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) {
			t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
		}
}
END {
	printf "{\"commit\": \"%s\", \"date\": \"%s\", ", commit, date
	if (speedup != "")
		printf "\"warm_regen_speedup\": %s, ", speedup
	if (serve_p50 != "" && serve_p99 != "")
		printf "\"serve_p50_ms\": %s, \"serve_p99_ms\": %s, ", serve_p50, serve_p99
	if (serve_hit != "")
		printf "\"serve_hit_ratio\": %s, ", serve_hit
	if ("BenchmarkDSEGeneration" in ev)
		printf "\"dse_evals_per_sec\": %g, ", median(ev["BenchmarkDSEGeneration"])
	if ("BenchmarkDSEGeneration" in hr)
		printf "\"dse_cache_hit_ratio\": %g, ", median(hr["BenchmarkDSEGeneration"])
	if ("BenchmarkCheckpointRestore" in ns)
		printf "\"ckpt_restore_ns_per_op\": %g, ", median(ns["BenchmarkCheckpointRestore"])
	if ("BenchmarkFaultSweep" in ns)
		printf "\"fault_sweep_ns_per_op\": %g, ", median(ns["BenchmarkFaultSweep"])
	if ("BenchmarkTraceDecode/next" in ns)
		printf "\"trace_decode_entries_per_sec\": %g, ", 65536 * 1e9 / median(ns["BenchmarkTraceDecode/next"])
	if ("BenchmarkWarmRestoreSeek" in ns)
		printf "\"warm_restore_seek_ns_per_op\": %g, ", median(ns["BenchmarkWarmRestoreSeek"])
	if ("BenchmarkTableBuild1024" in ns)
		printf "\"table_build_1024_ns_per_op\": %g, ", median(ns["BenchmarkTableBuild1024"])
	if ("BenchmarkNetworkCycle32x32" in ns)
		printf "\"cycle_ns_per_router_32x32\": %.1f, ", median(ns["BenchmarkNetworkCycle32x32"]) / 1024
	if ("BenchmarkNetworkCycle" in ns) {
		base = median(ns["BenchmarkNetworkCycle"])
		if (base > 0 && "BenchmarkNetworkCycleTraced" in ns)
			printf "\"tracer_overhead_pct\": %.1f, ", \
				100 * (median(ns["BenchmarkNetworkCycleTraced"]) - base) / base
		if (base > 0 && "BenchmarkNetworkCycleSampled" in ns)
			printf "\"metrics_overhead_pct\": %.1f, ", \
				100 * (median(ns["BenchmarkNetworkCycleSampled"]) - base) / base
		if ("BenchmarkNetworkCycleNoAttr" in ns && median(ns["BenchmarkNetworkCycleNoAttr"]) > 0)
			printf "\"attribution_overhead_pct\": %.1f, ", \
				100 * (base - median(ns["BenchmarkNetworkCycleNoAttr"])) / median(ns["BenchmarkNetworkCycleNoAttr"])
	}
	printf "\"benchmarks\": ["
	for (i = 1; i <= n; i++) {
		nm = order[i]
		printf "{\"name\": \"%s\", \"ns_per_op\": %g, \"bytes_per_op\": %g, \"allocs_per_op\": %g}%s", \
			nm, median(ns[nm]), median(b[nm]), median(a[nm]), (i < n) ? ", " : ""
	}
	printf "]}\n"
}' "$run")

tmp=$(mktemp)
if [ -s "$out" ]; then
	case "$(head -c 1 "$out")" in
	"[")
		# Existing history: reopen it and append this run.
		{ sed '$d' "$out" | sed '$s/$/,/'; printf '%s\n]\n' "$entry"; } > "$tmp"
		;;
	*)
		# Legacy single-object file: fold it in as the first history entry.
		{
			echo "["
			tr '\n' ' ' < "$out" | sed -e 's/[[:space:]]\{2,\}/ /g' -e 's/[[:space:]]*$/,/'
			echo
			printf '%s\n]\n' "$entry"
		} > "$tmp"
		;;
	esac
else
	printf '[\n%s\n]\n' "$entry" > "$tmp"
fi
mv "$tmp" "$out"

echo "appended to $raw and $out" >&2
