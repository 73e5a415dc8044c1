#!/bin/sh
# bench_gate.sh — the allocs/op and B/op regression gate over a
# `go test -json -benchmem` event stream. The baseline file names every
# gated benchmark, one per line, with its allocs/op and B/op:
#
#   # comment
#   BenchmarkFleetStreaming 2203 290512
#   BenchmarkCapacityProbe  4096 813032
#
# Each named benchmark must appear in the stream with an allocs/op and
# a B/op figure, each at most 20% over its baseline. A missing or
# malformed baseline file fails loudly — a gate that silently skips is
# how allocation creep ships.
#
# usage: bench_gate.sh BASELINE_FILE BENCH_JSON
set -eu

if [ "$#" -ne 2 ]; then
    echo "usage: $0 BASELINE_FILE BENCH_JSON" >&2
    exit 2
fi
baseline_file=$1
bench_json=$2

if [ ! -f "$baseline_file" ]; then
    echo "bench gate FAIL: baseline file $baseline_file is missing" >&2
    echo "  (seed it with one '<BenchmarkName> <allocs/op> <B/op>' line per gated benchmark)" >&2
    exit 1
fi
if [ ! -f "$bench_json" ]; then
    echo "bench gate FAIL: benchmark stream $bench_json is missing" >&2
    exit 1
fi

# is_count succeeds when its argument is a non-negative decimal integer.
is_count() {
    case "$1" in
    '' | *[!0-9]*) return 1 ;;
    esac
}

# check NAME UNIT GOT BASE: fail unless GOT is at most BASE + 20%.
check() {
    limit=$(($4 + $4 / 5))
    if [ "$3" -gt "$limit" ]; then
        echo "bench gate FAIL: $1 $3 $2 > $limit (baseline $4 +20%)" >&2
        exit 1
    fi
    echo "bench gate OK: $1 $3 $2 <= $limit (baseline $4 +20%)"
}

gated=0
while read -r name base_allocs base_bytes rest; do
    case "$name" in '' | '#'*) continue ;; esac
    if [ "${name#Benchmark}" = "$name" ] || ! is_count "${base_allocs:-}" ||
        ! is_count "${base_bytes:-}" || [ -n "$rest" ]; then
        echo "bench gate FAIL: malformed baseline line '$name ${base_allocs:-} ${base_bytes:-} ${rest:-}' in $baseline_file" >&2
        echo "  (expected '<BenchmarkName> <allocs/op> <B/op>')" >&2
        exit 1
    fi
    gated=$((gated + 1))
    # The stream quotes benchmark output inside JSON "Output" events;
    # match the result line for this exact benchmark (allowing the
    # -N GOMAXPROCS suffix) and scrape its B/op and allocs/op.
    result=$(grep "$name" "$bench_json" | grep 'allocs/op' | head -1)
    allocs=$(printf '%s\n' "$result" | sed -E 's|.*[^0-9]([0-9]+) allocs/op.*|\1|')
    bytes=$(printf '%s\n' "$result" | sed -E 's|.*[^0-9]([0-9]+) B/op.*|\1|')
    if [ -z "$result" ] || ! is_count "$allocs" || ! is_count "$bytes"; then
        echo "bench gate FAIL: no allocs/op and B/op for $name in $bench_json" >&2
        echo "  (benchmark removed or renamed, or run without -benchmem? update $baseline_file)" >&2
        exit 1
    fi
    check "$name" allocs/op "$allocs" "$base_allocs"
    check "$name" B/op "$bytes" "$base_bytes"
done < "$baseline_file"

if [ "$gated" -eq 0 ]; then
    echo "bench gate FAIL: $baseline_file names no benchmarks" >&2
    exit 1
fi
