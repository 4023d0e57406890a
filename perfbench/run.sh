#!/usr/bin/env bash
# Builds the benchmark from source and runs it; see perfbench/README.md.
# Run from the repository root:
#   bash perfbench/run.sh --workload fleet-watch --seed 1 --seconds 20 --trace 0
set -euo pipefail
if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOTELEMETRY=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
