#!/usr/bin/env bash
# BENCHMARK.json's command: build the harness from this checkout's source
# and run it with the driver's arguments. Every byte the build and the
# run write — Go's build cache and temp files included — stays under
# .bench_build/ and benchmark/out/ in the checkout. People can skip this
# and type `go run ./benchmark`; the numbers are the same.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/noctool ]; then
	echo "benchmark/run.sh: run from the root of a tanoq checkout (go.mod and cmd/noctool not found here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
# The go command keeps its env file and telemetry counters under the user's
# config directory; point that into the build tree too.
export XDG_CONFIG_HOME="$build/config"

go build -o "$build/bin/harness" ./benchmark
exec "$build/bin/harness" "$@"
