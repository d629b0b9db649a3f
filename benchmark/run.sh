#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash benchmark/run.sh --workload kv-zipf --seed 1 --seconds 35 --trace 0
# Run from the repo root. The build output, the Go build cache and the
# traced run's CPU profile stay in .bench_build/ under the current
# directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=
(cd "$here" && go build -o "$out/millipage-benchmark" .) >&2
exec "$out/millipage-benchmark" -out "$out" "$@"
