#!/bin/sh
# verify.sh — the repo's full verification gate, referenced from ROADMAP.md
# and run verbatim by CI (.github/workflows/verify.yml). Runs the tier-1
# build/tests plus the race detector and the spcdlint static analyzers
# (internal/analysis). Pre-merge checks should run exactly this.
#
# spcdbench is a separate module (it imports this one through a replace
# directive), so `./...` and spcdlint never see it; it gets its own vet and
# test step so a change to an exported name it uses cannot break the
# benchmark unnoticed.
#
# BENCH=1 ./verify.sh additionally runs `make bench`: full-length
# microbenchmarks of the engine hot path and the canonical refresh of
# BENCH_engine.json (cmd/perfbench at -parallel 1, so timings are
# uncontended). Opt-in because it adds minutes of wall time and its numbers
# are machine-dependent.
#
# OBS=1 ./verify.sh additionally runs `make obs-smoke`: a tiny traced
# simulation through cmd/spcdobs whose -check flag re-reads the emitted
# Chrome-trace JSON and CSV time series and validates them. OBS_DIR overrides
# the artifact directory; by default a temporary directory is used and
# removed afterwards.
set -eux

go build ./...
go vet ./...
go test -race ./...
go run ./cmd/spcdlint ./...
(cd spcdbench && go vet . && go test .)

if [ "${BENCH:-0}" = "1" ]; then
	make bench
fi

if [ "${OBS:-0}" = "1" ]; then
	if [ -n "${OBS_DIR:-}" ]; then
		make obs-smoke OBS_DIR="$OBS_DIR"
	else
		obsdir=$(mktemp -d)
		make obs-smoke OBS_DIR="$obsdir"
		rm -rf "$obsdir"
	fi
fi
