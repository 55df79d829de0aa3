#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, with the benchmark's flags:
#
#   bash spcdbench/run.sh --workload npb-shared --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build and module caches, the binary and the
# traced spans. The simulations run on one goroutine; GOMAXPROCS=2 leaves
# the garbage collector the second core on every host.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${root}/.bench_build/spcdbench"
mkdir -p "${out}/home"

export HOME="${out}/home"
export XDG_CONFIG_HOME="${out}/home/.config"
export XDG_CACHE_HOME="${out}/home/.cache"
export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export GOMODCACHE="${out}/gopath/pkg/mod"
export GOTMPDIR="${out}"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "${here}" && go build -o "${out}/spcdbench" .)
GOMAXPROCS=2 exec "${out}/spcdbench" "$@"
