#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
# Build outputs (binary, Go build cache) go to .bench_build/ in the current
# directory; every argument is passed to the benchmark binary.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"

# Keep everything the go command writes (build cache, module cache,
# telemetry counters under the user config directory) inside .bench_build.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
