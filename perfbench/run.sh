#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing all
# arguments through. Run from the repository root:
#
#   bash perfbench/run.sh --workload ul-busy --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, traces) stays under
# .bench_build in the current directory.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export GOTMPDIR="${out}"
export XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
