#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash benchmark/run.sh --workload cell --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (the Go
# build cache, the toolchain's telemetry counters, the binary, the traced
# run's spans) stays under .bench_build in the working directory, and the
# toolchain is never asked to download anything.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS= CGO_ENABLED=0

go -C "$here" build -p 2 -o "$out/benchmark" .
exec "$out/benchmark" "$@"
