#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root:
#
#   bash benchmark/run.sh --workload paper_small --seed 42 --seconds 20 --trace 0
#
# Binaries, the Go toolchain's cache, temp and telemetry directories and
# every scratch file live under .bench_build in the checkout, so a run
# writes nothing outside it. In a
# directory that holds only the benchmark, the build fails (the module it
# measures is missing) and this script exits non-zero.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bin/benchmark" .)
cd "$root"
exec "$build/bin/benchmark" "$@"
