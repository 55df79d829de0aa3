# Convenience targets; verify is the pre-merge gate (see ROADMAP.md).
#
# Benchmark targets:
#   bench        — the canonical BENCH_engine.json refresh path: full-length
#                  microbenchmarks (benchtime=100x) on the engine hot path
#                  plus cmd/perfbench at -parallel 1, so the recorded wall
#                  times are uncontended and comparable across records.
#   bench-smoke  — 1-iteration pass over every benchmark (benchtime=1x):
#                  proves they still compile and run; numbers meaningless.
# verify.sh's BENCH=1 / OBS=1 blocks call these targets, so the recipe lives
# in exactly one place.

.PHONY: build test race lint lint-bench verify bench bench-smoke cache-fuzz-smoke obs-smoke chaos-smoke runtimeobs-smoke shootdown-smoke churn-smoke

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

lint:
	go run ./cmd/spcdlint ./...

# Times a full-module spcdlint run (build excluded) and fails when it
# exceeds LINT_BUDGET seconds. The interprocedural rules type-check the
# whole module and build the call graph on every run; this target is the
# regression tripwire that keeps the linter cheap enough for pre-commit use.
LINT_BUDGET ?= 30

lint-bench:
	go build -o /tmp/spcdlint-bench ./cmd/spcdlint
	@start=$$(date +%s%N); \
	/tmp/spcdlint-bench ./... ; status=$$?; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	end=$$(date +%s%N); \
	elapsed_ms=$$(( (end - start) / 1000000 )); \
	echo "spcdlint full-module run: $${elapsed_ms} ms (budget $(LINT_BUDGET)s)"; \
	if [ $$elapsed_ms -gt $$(( $(LINT_BUDGET) * 1000 )) ]; then \
		echo "lint-bench: exceeded $(LINT_BUDGET)s budget" >&2; exit 1; \
	fi

verify:
	./verify.sh

bench:
	go test -run '^$$' -bench=. -benchmem -benchtime=100x \
		./internal/vm ./internal/cache ./internal/engine
	go run ./cmd/perfbench -parallel 1 -o BENCH_engine.json

bench-smoke:
	go test -run '^$$' -bench=. -benchmem -benchtime=1x ./...

# Fuzzes the recency-ordered cache array against the stamp-and-bitset
# reference (internal/cache/refarray_test.go) beyond the seed corpus that
# `go test ./...` already replays. Minimizing each new interesting input
# may take the default 60 s, which would use up the whole 20 s budget with
# a handful of executions; 2 s per input leaves tens of thousands.
cache-fuzz-smoke:
	go test -run '^$$' -fuzz FuzzArrayMatchesReference -fuzztime 20s \
		-fuzzminimizetime 2s ./internal/cache

# OBS_DIR overrides where the trace/CSV artifacts land (CI uploads them).
OBS_DIR ?= .obs-smoke

obs-smoke:
	mkdir -p $(OBS_DIR)
	go run ./cmd/spcdobs -bench CG -class test -threads 8 \
		-policies os,spcd -dir $(OBS_DIR) -check

# Fixed fault plan (seed 42, intensity axis 0/0.5/1) on ClassSmall; -check
# reruns the whole grid at parallelism 1 and 8 and requires byte-identical
# reports, so this both exercises every degradation path and proves the
# determinism contract holds under fault load.
chaos-smoke:
	go run ./cmd/chaossweep -bench CG -class small -threads 8 \
		-policies os,spcd -intensities 0,0.5,1 -seed 42 -reps 2 -check

# Host-side runtime observability end to end: a ClassSmall run with
# -runtimeobs, then -check re-reads runtime_trace.json / runtime_summary.json
# and validates them (trace parses with >= 1 complete event; summary holds
# at least one engine run with finite phase times and simulate_seconds > 0).
# RUNTIMEOBS_DIR overrides where the artifacts land (CI uploads).
RUNTIMEOBS_DIR ?= .runtimeobs-smoke

runtimeobs-smoke:
	mkdir -p $(RUNTIMEOBS_DIR)
	go run ./cmd/spcdobs -bench CG -class small -threads 8 \
		-policies os,spcd -dir $(RUNTIMEOBS_DIR) \
		-runtimeobs $(RUNTIMEOBS_DIR) -check

# Translation-coherence cost model under both schemes at ClassSmall scale:
# the full grid runs with -shootdown ipi and hatric, and each leg must be
# byte-identical at parallelism 1 vs 8 (-check) — shootdown charging is
# canonical, so the worker count cannot leak into the honest remap costs.
# The comparison CSVs land in SHOOTDOWN_DIR (CI uploads them as artifacts).
SHOOTDOWN_DIR ?= .shootdown-smoke

shootdown-smoke:
	mkdir -p $(SHOOTDOWN_DIR)
	go run ./cmd/chaossweep -bench CG -class small -threads 8 \
		-policies os,spcd -intensities 0,0.5,1 -seed 42 -reps 2 \
		-shootdown ipi -check \
		-csv $(SHOOTDOWN_DIR)/shootdown_ipi.csv
	go run ./cmd/chaossweep -bench CG -class small -threads 8 \
		-policies os,spcd -intensities 0,0.5,1 -seed 42 -reps 2 \
		-shootdown hatric -check \
		-csv $(SHOOTDOWN_DIR)/shootdown_hatric.csv

# The long-running serving scenario under churn at ClassSmall scale: a
# two-tenant schedule (arrival, phase switch) across the fault-intensity
# axis, compared against its churn-free baseline. -check reruns the whole
# grid at parallelism 1 vs 8 and requires byte-identical reports, proving
# the scenario loop, admission retries and churn governor stay on the
# deterministic path. The SLO CSV lands in CHURN_DIR (CI uploads it as an
# artifact).
CHURN_DIR ?= .churn-smoke

churn-smoke:
	mkdir -p $(CHURN_DIR)
	go run ./cmd/chaossweep -churn -tenants 2 -class small \
		-intensities 0,0.5,1 -seed 42 -reps 2 -check \
		-csv $(CHURN_DIR)/slo_under_churn.csv
