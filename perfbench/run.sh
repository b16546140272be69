#!/usr/bin/env bash
# Builds the benchmark from source and runs it once:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# from the repository root. Everything it writes stays in .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/runs" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" HOME="$build/home" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$here" && go build -o "$build/bin/" ./cmd/pbnode ./cmd/pbrun) >&2
exec "$build/bin/pbrun" -node "$build/bin/pbnode" -dir "$build/runs" "$@"
