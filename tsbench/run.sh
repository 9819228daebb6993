#!/usr/bin/env bash
# Builds the turbosyn CLI, the turbosynd daemon and the benchmark program from
# the checkout this is run in, then runs the benchmark:
#
#   bash tsbench/run.sh --workload giant_scc --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Every build product, Go cache and scratch
# file stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
[ -f "$root/go.mod" ] && [ -d "$root/cmd/turbosyn" ] || {
	echo "tsbench: run from the repository root (go.mod and cmd/turbosyn not found)" >&2
	exit 2
}

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

mkdir -p "$build/bin" "$build/tmp"
go build -o "$build/bin/turbosyn" ./cmd/turbosyn
go build -o "$build/bin/turbosynd" ./cmd/turbosynd
(cd tsbench && go build -o "$build/bin/tsbench" .)

exec "$build/bin/tsbench" -root "$root" -bin "$build/bin" -work "$build/work" "$@"
