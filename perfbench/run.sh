#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it.  Run from the repository root:
#
#   bash perfbench/run.sh --workload hicon --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache and span dumps stay in .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
