#!/usr/bin/env bash
# Builds the repository benchmark from the sources of the current checkout
# and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload noc-synth --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, temporary files, result records
# and Chrome traces.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: $root is not the heteronoc repository root (no go.mod or internal/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

# Stamp the commit into the binary only when the checkout is a git work
# tree; elsewhere the result record falls back to the source hash.
vcs=false
if [ -e "$root/.git" ]; then
	vcs=auto
fi
(cd "$root/perfbench" && go build -buildvcs="$vcs" -o "$build/perfbench" .)

if [ "${1:-}" = "--workload" ] && [ "${2:-}" = "all" ]; then
	shift 2
	for w in noc-synth cmp-apps serve-mixed; do
		"$build/perfbench" --workload "$w" "$@"
	done
	exit 0
fi
exec "$build/perfbench" "$@"
