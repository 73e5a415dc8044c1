#!/bin/sh
# metrics_smoke.sh — the live-observability scrape check: launch a run
# with the HTTP listener armed (-listen, plus a -serve-seconds linger
# so the endpoints outlive the run), wait for /healthz, wait for the
# flight recorder's final record on /series, then scrape /metrics and
# validate the Prometheus text exposition (0.0.4): HELP'd, TYPE'd,
# qvr_-prefixed samples. The scraped bodies are kept in bin/ for CI to
# inspect on failure.
#
# usage: metrics_smoke.sh CMD [ARGS...]
#
#   CMD...  the run command; "-listen ADDR -serve-seconds 20" is
#           appended, so it must accept the shared obs flags. It must
#           be the program itself (a built binary), not a wrapper such
#           as `go run`: the script stops the process it started once
#           it has scraped, and a wrapper's child would keep serving.
set -eu

if [ "$#" -lt 1 ]; then
    echo "usage: $0 CMD [ARGS...]" >&2
    exit 2
fi

# Derive the port from the PID: cheap collision avoidance when two
# smokes share a runner.
port=$((10000 + $$ % 20000))
addr="127.0.0.1:$port"
mkdir -p bin

"$@" -listen "$addr" -serve-seconds 20 > bin/metrics-smoke.json &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT

# The listener comes up before the run's first phase; give it 20s.
up=0
i=0
while [ "$i" -lt 100 ]; do
    if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
        up=1
        break
    fi
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.2
    i=$((i + 1))
done
if [ "$up" != 1 ]; then
    echo "metrics smoke FAIL: /healthz never came up on $addr" >&2
    exit 1
fi
echo "metrics-smoke: /healthz up on $addr"

# Wait for the run to finish (the stream's final record appears on
# /series), so the archived /metrics scrape shows the whole run.
done=0
i=0
while [ "$i" -lt 300 ]; do
    if curl -fsS "http://$addr/series" 2>/dev/null | grep -q '"kind":"final"'; then
        done=1
        break
    fi
    sleep 0.2
    i=$((i + 1))
done
if [ "$done" != 1 ]; then
    echo "metrics smoke FAIL: /series never delivered the final record" >&2
    exit 1
fi

curl -fsS "http://$addr/metrics" > bin/metrics-smoke.prom
curl -fsS "http://$addr/series" > bin/metrics-smoke.ndjson

# The run is done (the final record arrived) — no need to sit out the
# rest of the serve linger.
kill "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
trap - EXIT

# Prometheus text exposition: HELP + TYPE present, counter samples
# bare-valued, everything under the qvr_ prefix.
fail() { echo "metrics smoke FAIL: $1 (see bin/metrics-smoke.prom)" >&2; exit 1; }
grep -q '^# HELP qvr_' bin/metrics-smoke.prom || fail "no # HELP lines"
grep -q '^# TYPE qvr_[a-z0-9_]* counter$' bin/metrics-smoke.prom || fail "no counter # TYPE lines"
grep -q '^# TYPE qvr_[a-z0-9_]* histogram$' bin/metrics-smoke.prom || fail "no histogram # TYPE lines"
grep -Eq '^qvr_[a-z0-9_]+ [0-9]+$' bin/metrics-smoke.prom || fail "no counter samples"
grep -Eq '^qvr_[a-z0-9_]+_bucket\{le="[^"]*"\} [0-9]+$' bin/metrics-smoke.prom || fail "no histogram buckets"
if grep -vE '^(# (HELP|TYPE) qvr_|qvr_)' bin/metrics-smoke.prom | grep -q .; then
    fail "lines outside the qvr_ namespace"
fi
helps=$(grep -c '^# HELP qvr_' bin/metrics-smoke.prom)
types=$(grep -c '^# TYPE qvr_' bin/metrics-smoke.prom)
if [ "$helps" != "$types" ]; then
    fail "$helps HELP lines vs $types TYPE lines"
fi
echo "metrics scrape OK: $helps metrics HELP'd and TYPE'd on /metrics, final series on /series"
