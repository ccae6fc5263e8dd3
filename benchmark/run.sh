#!/usr/bin/env bash
# Builds the benchmark from source (first call only; later calls hit the build
# cache) and runs it.  Everything the toolchain writes stays inside the
# checkout, under .bench_build/, so a checkout can be thrown away whole.
#
#   bash benchmark/run.sh --workload elem-sync --seed 1 --seconds 15 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# Writes stay inside the checkout; nothing is fetched (the module has no
# dependency outside this repository); a go.work above the checkout is ignored.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# The benchmark is a module of its own (benchmark/go.mod) that takes the
# program under test from the enclosing checkout through a replace directive.
(cd "$here" && go build -o "$build/pcbench" .) >&2

exec "$build/pcbench" "$@"
