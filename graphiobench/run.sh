#!/usr/bin/env bash
# Builds graphio-bench from the checkout it is run in, then runs it with the
# given flags. Run from the repository root:
#
#   bash graphiobench/run.sh --workload query-dense --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, scratch
# data directories) stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C graphiobench build -o "$build/graphio-bench" .
exec "$build/graphio-bench" "$@"
