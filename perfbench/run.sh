#!/usr/bin/env bash
# Builds the benchmark and the daemons it drives into .bench_build/ of the
# checkout it is run from, then runs the benchmark with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload match_local --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
# Keep the toolchain's caches and every temporary file inside the checkout,
# ignore any user-level Go settings, and never fetch modules: the benchmark
# depends only on the repository.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

go build -o "$build/bin/ssrec-server" ./cmd/ssrec-server
go build -o "$build/bin/ssrec-shardd" ./cmd/ssrec-shardd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" "$@"
