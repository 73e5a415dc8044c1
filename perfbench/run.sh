#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mega-steady --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# that root: the binary, the Go build cache and the traced run's Chrome
# traces. Without the repository's sources next to perfbench/ the build
# fails, and so does this script, before printing any result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" HOME="$out/home"
export GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOTELEMETRY=off
mkdir -p "$HOME"

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
