# Local targets mirror .github/workflows/ci.yml exactly, so `make ci`
# reproduces what the PR gate runs.

GO ?= go

.PHONY: build test race bench bench-json perfbench-check scenario-smoke edge-smoke autoscale-smoke scale-smoke capacity-smoke obs-smoke profile profile-top alloc-top fmt vet fmt-check lint ci

# build compiles every package and drops the command binaries
# (qvr-sim, qvr-bench, qvr-trace, qvr-live, qvr-fleet, qvr-scenario,
# qvr-capacity, qvr-tracecheck, qvr-report, qvr-vet) into ./bin.
# qvr-scenario runs every scenario, grid or not.
build:
	$(GO) build ./...
	$(GO) build -o bin/ ./cmd/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmark smoke: one iteration of every benchmark, enough to catch
# harness breakage without caring about timing noise.
bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# Benchmark trajectory: the fleet, edge, capacity and paper-eval
# benchmarks as a machine-readable JSON event stream (go test -json
# -benchmem), one file CI archives every run so the perf history
# accumulates across PRs. scripts/bench_gate.sh then scrapes allocs/op
# and B/op for every benchmark named in bench_baseline.txt and fails
# the build on a >20% regression in either — or on a missing/malformed
# baseline, so the gate can never silently skip.
bench-json:
	@mkdir -p bin
	$(GO) test -json -bench 'BenchmarkFleet|BenchmarkEdge|BenchmarkScenario|BenchmarkAutoscale|BenchmarkCapacity|BenchmarkPaperEval' -benchmem -benchtime=1x -run '^$$' . > bin/BENCH_edge.json
	@echo "wrote bin/BENCH_edge.json ($$(wc -c < bin/BENCH_edge.json) bytes)"
	@./scripts/bench_gate.sh bench_baseline.txt bin/BENCH_edge.json

# The end-to-end benchmark's own gate. perfbench/ is a nested module
# (qvr/perfbench, replacing qvr with this checkout), so `go test ./...`
# at the root never reaches it: vet and test it in place, then run each
# workload for one second and require the result line to report
# "correct":true, so a change that breaks a workload's check or its
# build fails here rather than in a 30-second benchmark run.
PERFBENCH_WORKLOADS = paper-eval mega-steady capacity-probe

perfbench-check:
	GOFLAGS=-mod=mod GOPROXY=off $(GO) -C perfbench vet ./...
	GOFLAGS=-mod=mod GOPROXY=off $(GO) -C perfbench test ./...
	@for w in $(PERFBENCH_WORKLOADS); do \
		out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		case "$$out" in \
			*'"correct":true'*) echo "perfbench $$w OK: $$out" ;; \
			*) echo "perfbench-check FAIL: $$w: $$out"; exit 1 ;; \
		esac; \
	done

# Every smoke below enforces the same determinism contract through
# scripts/determinism_smoke.sh: byte-identical JSON across worker pool
# sizes, because sharded worker-local state may never leak into the
# science. SMOKE_COUNTERS=1 extends the contract to the observability
# layer — the merged counter snapshots must also match byte-for-byte,
# and writing them arms the CLI-side Refute invariant checker, so every
# smoke is a standing audit of the stack's bookkeeping.

# Scenario smoke: one built-in timeline in miniature, then the
# determinism contract on the outage-failover scenario.
scenario-smoke:
	@mkdir -p bin
	$(GO) run ./cmd/qvr-scenario -builtin flash-crowd -frames 8 -warmup 4
	@SMOKE_COUNTERS=1 ./scripts/determinism_smoke.sh scenario scn 1 7 '' \
		$(GO) run ./cmd/qvr-scenario -builtin cluster-outage-failover -frames 8 -warmup 4

# Edge-grid smoke: the regional-outage built-in in miniature, with
# sessions migrating (not dropping) through the outage.
edge-smoke:
	@mkdir -p bin
	$(GO) run ./cmd/qvr-scenario -builtin edge-regional-outage -frames 8 -warmup 4
	@SMOKE_COUNTERS=1 ./scripts/determinism_smoke.sh edge edge 1 7 '' \
		$(GO) run ./cmd/qvr-scenario -builtin edge-regional-outage -frames 8 -warmup 4

# Autoscale smoke: the flash-crowd autoscaling built-in in miniature,
# then the closed loop's two contracts — determinism (the controller's
# decisions are pure functions of windowed metrics), and elastic
# capacity beating static peak provisioning on GPU-seconds. The awk
# gate scrapes the report totals (the autoscale block follows the
# phase rows, so the last "gpu_seconds" is the timeline total).
autoscale-smoke:
	@mkdir -p bin
	$(GO) run ./cmd/qvr-scenario -builtin edge-autoscale-flashcrowd -frames 8 -warmup 4
	@SMOKE_COUNTERS=1 ./scripts/determinism_smoke.sh autoscale autoscale 1 4 '' \
		$(GO) run ./cmd/qvr-scenario -builtin edge-autoscale-flashcrowd -frames 8 -warmup 4
	@awk -F': *' '/"gpu_seconds"/ { gsub(/,/, "", $$2); used = $$2 } \
		/"static_peak_gpu_seconds"/ { gsub(/,/, "", $$2); peak = $$2 } \
		END { \
			if (used + 0 <= 0 || peak + 0 <= 0 || used + 0 >= peak + 0) { \
				printf "autoscale smoke FAIL: %s GPU-s consumed vs %s static peak\n", used, peak; exit 1 \
			} \
			printf "autoscale GPU-seconds OK: %s consumed < %s static peak\n", used, peak \
		}' bin/autoscale-w1.json

# Scale smoke: the streaming metrics core at production scale — the
# mega-steady built-in runs a 20,000-session steady state (42k session
# simulations across three phases, trimmed to 2 frames each) twice.
# This is the 100k-session contract in CI-sized form: the run must
# also fit the CI memory budget, because per-session state is a
# compact summary, not a FrameRecord slice.
#
# The giga step is the mixed-fidelity contract at 1,000,000 sessions:
# giga-steady rides the calibrated surrogate fast path with a 0.2%
# stratified exact sample, so the same determinism smoke (fidelity
# error-bound block included in the byte diff) completes in CI time.
# The awk gate then scrapes the w1 report: the peak phase must have
# carried the full million sessions, and every per-phase cross-check
# error must sit strictly inside the declared tolerance. A separate
# timed pass archives the fast path's throughput (sessions/s) as
# bin/BENCH_obs_giga.txt; the surrogate-vs-exact ratio at equal fleet
# shape lives in bin/BENCH_edge.json (BenchmarkFleetSurrogate vs
# BenchmarkFleetStreaming).
scale-smoke:
	@mkdir -p bin
	@SMOKE_COUNTERS=1 SMOKE_SERIES=1 ./scripts/determinism_smoke.sh scale scale 1 4 '' \
		$(GO) run ./cmd/qvr-scenario -builtin mega-steady -frames 2 -warmup 1
	@cp bin/scale-counters-w1.ndjson bin/BENCH_obs.ndjson
	@echo "archived mega-steady counters as bin/BENCH_obs.ndjson ($$(wc -l < bin/BENCH_obs.ndjson) records)"
	$(GO) run ./cmd/qvr-report -series bin/scale-series-w1.ndjson -o bin/BENCH_obs.html
	@grep -q '<svg' bin/BENCH_obs.html \
		|| { echo "scale smoke FAIL: bin/BENCH_obs.html carries no charts"; exit 1; }
	@echo "archived mega-steady run report as bin/BENCH_obs.html ($$(wc -c < bin/BENCH_obs.html) bytes)"
	@SMOKE_COUNTERS=1 SMOKE_SERIES=1 SMOKE_FIDELITY=1 ./scripts/determinism_smoke.sh giga giga 1 4 '' \
		$(GO) run ./cmd/qvr-scenario -builtin giga-steady -frames 2 -warmup 1
	@awk -F': *' '/"active"/ { gsub(/,/, "", $$2); if ($$2 + 0 > n) n = $$2 + 0 } \
		/"max_error"/ { gsub(/,/, "", $$2); if ($$2 + 0 > e) e = $$2 + 0 } \
		END { \
			if (n + 0 < 1000000 || e + 0 <= 0 || e + 0 >= 0.15) { \
				printf "giga smoke FAIL: peak %s sessions, max cross-check error %s (need >= 1000000 within (0, 0.15))\n", n, e; exit 1 \
			} \
			printf "giga OK: %s sessions at peak, max cross-check error %s within tolerance\n", n, e \
		}' bin/giga-w1.json
	@start=$$(date +%s); \
		$(GO) run ./cmd/qvr-scenario -builtin giga-steady -frames 2 -warmup 1 -workers 4 > /dev/null; \
		end=$$(date +%s); wall=$$((end - start)); [ "$$wall" -gt 0 ] || wall=1; \
		rate=$$((2200000 / wall)); \
		echo "giga-steady: 2,200,000 session-windows in $${wall}s ($${rate} sessions/s on the surrogate fast path)" \
			| tee bin/BENCH_obs_giga.txt

# Capacity smoke: the HPL-style probe in miniature on the
# capacity-probe built-in. Three gates: (1) the knee-curve JSON is
# byte-identical across worker pool sizes — the scaling study's
# wall-clock-derived fields are the only lines excluded from the diff;
# (2) the probe found a real knee strictly inside the search bounds
# (an answer pinned to either bound is a bound, not a measurement);
# (3) the run produced the BENCH_capacity.json event stream and the
# HPL.dat-style capacity.params file CI archives.
capacity-smoke:
	@mkdir -p bin
	@SMOKE_COUNTERS=1 ./scripts/determinism_smoke.sh capacity cap 1 4 \
		'"(wall_seconds|sessions_per_sec|speedup|efficiency)"' \
		$(GO) run ./cmd/qvr-capacity -builtin capacity-probe -frames 40 -warmup 8 \
			-scale-workers 1,4 -spw 4 \
			-params bin/capacity.params -events bin/BENCH_capacity.json
	@awk -F': *' '/"min_sessions"/ { gsub(/,/, "", $$2); min = $$2 } \
		/"max_sessions"/ { gsub(/,/, "", $$2); max = $$2 } \
		/"outcome"/ { gsub(/[",]/, "", $$2); outcome = $$2 } \
		/"knee_sessions"/ { gsub(/,/, "", $$2); knee = $$2 } \
		END { \
			if (outcome != "knee" || knee + 0 <= min + 0 || knee + 0 >= max + 0) { \
				printf "capacity smoke FAIL: outcome %s, knee %s not strictly inside [%s, %s]\n", outcome, knee, min, max; exit 1 \
			} \
			printf "capacity knee OK: %s sessions strictly inside [%s, %s]\n", knee, min, max \
		}' bin/cap-w1.json
	@test -s bin/BENCH_capacity.json || { echo "capacity smoke FAIL: bin/BENCH_capacity.json missing or empty"; exit 1; }
	@test -s bin/capacity.params || { echo "capacity smoke FAIL: bin/capacity.params missing or empty"; exit 1; }
	@echo "capacity artifacts OK: bin/BENCH_capacity.json ($$(wc -l < bin/BENCH_capacity.json) events), bin/capacity.params"

# Observability smoke, in four acts. (1) Capture a sampled span trace
# of the regional-outage timeline (24 sessions/run, enough to sample a
# migrated session), validate it against the trace-event schema with
# qvr-tracecheck (well-formed JSON, known phases, per-lane monotone
# timestamps), and require the migration handoff to be visible as a
# span and the phase starts as instant marks. (2) The flight
# recorder's determinism contract: the autoscaled flash crowd's time
# series — interior 30s samples included — must be byte-identical
# across worker pool sizes, with the window-sum audit armed. (3) The
# series renders to an HTML run report whose grid charts made it in.
# (4) The live endpoints: scripts/metrics_smoke.sh scrapes /metrics
# during a real run and validates the Prometheus text exposition. It
# runs the built binary, not `go run`, so the process the script stops
# once it has scraped is the server itself.
obs-smoke:
	@mkdir -p bin
	$(GO) run ./cmd/qvr-scenario -builtin edge-regional-outage -frames 8 -warmup 4 \
		-counters bin/obs-counters.ndjson \
		-trace bin/obs-trace.json -trace-sessions 24 > /dev/null
	$(GO) run ./cmd/qvr-tracecheck bin/obs-trace.json
	@grep -q '"migration-handoff"' bin/obs-trace.json \
		|| { echo "obs smoke FAIL: no migration-handoff span in bin/obs-trace.json"; exit 1; }
	@grep -q '"phase:' bin/obs-trace.json \
		|| { echo "obs smoke FAIL: no phase instant marks in bin/obs-trace.json"; exit 1; }
	@echo "obs trace OK: migration handoff span + phase instant marks"
	@SMOKE_SERIES=1 ./scripts/determinism_smoke.sh obs-series obs 1 4 '' \
		$(GO) run ./cmd/qvr-scenario -builtin edge-autoscale-flashcrowd -frames 8 -warmup 4 \
			-series-interval 30
	$(GO) run ./cmd/qvr-report -series bin/obs-series-w1.ndjson -o bin/obs-report.html
	@grep -q 'Per-cluster GPUs' bin/obs-report.html \
		|| { echo "obs smoke FAIL: bin/obs-report.html lost the grid charts"; exit 1; }
	@echo "obs report OK: bin/obs-report.html ($$(wc -c < bin/obs-report.html) bytes)"
	$(GO) build -o bin/qvr-scenario ./cmd/qvr-scenario
	./scripts/metrics_smoke.sh ./bin/qvr-scenario -builtin edge-regional-outage -frames 8 -warmup 4

# Profile the real fleet workloads (not a synthetic benchmark), for the
# measure-then-tune loop: CPU + end-of-run heap profiles of the
# mega-steady scale scenario, and a CPU profile of the capacity probe's
# many small contended runs, where the tracker's share shows. One probe
# takes ~0.2 s, so five identical runs are merged into one profile.
# Inspect with `go tool pprof`.
profile: build
	@mkdir -p bin
	./bin/qvr-scenario -builtin mega-steady -frames 2 -warmup 1 -workers 4 \
		-cpuprofile bin/scenario-cpu.prof -memprofile bin/scenario-mem.prof > /dev/null
	for i in 1 2 3 4 5; do \
		./bin/qvr-capacity -builtin capacity-probe -frames 20 -max 64 -params "" -scale-workers "" \
			-cpuprofile bin/capacity-cpu-$$i.prof > /dev/null || exit 1; \
	done
	$(GO) tool pprof -proto bin/capacity-cpu-[1-5].prof > bin/capacity-cpu.prof
	@rm -f bin/capacity-cpu-[1-5].prof
	@echo "wrote bin/scenario-cpu.prof, bin/scenario-mem.prof and bin/capacity-cpu.prof"
	@echo "inspect with: go tool pprof bin/scenario-cpu.prof"

# Each CPU profile's top 20 functions by flat time, mega-steady then the
# capacity probe: the shares quoted in ROADMAP.md, reproduced with one
# command.
profile-top: profile
	@echo "== mega-steady (bin/scenario-cpu.prof) =="
	$(GO) tool pprof -top -nodecount=20 bin/scenario-cpu.prof
	@echo "== capacity-probe (bin/capacity-cpu.prof) =="
	$(GO) tool pprof -top -nodecount=20 bin/capacity-cpu.prof

# The heap profile's top 20 functions by objects allocated over the
# whole run: where per-session allocations come from.
alloc-top: profile
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=20 bin/scenario-mem.prof

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Static enforcement of the determinism contract: qvr-vet runs the
# internal/lint analyzer suite (wallclock, globalrand, maporder,
# goroutineshare, counterlit) over the whole module. Zero findings or
# the build fails; exemptions only via reasoned //qvr:<analyzer>
# directives, which the lint tests audit for non-empty reasons.
lint:
	@mkdir -p bin
	$(GO) build -o bin/qvr-vet ./cmd/qvr-vet
	./bin/qvr-vet ./...

ci: fmt-check vet lint build race bench scenario-smoke edge-smoke autoscale-smoke scale-smoke capacity-smoke obs-smoke bench-json perfbench-check
