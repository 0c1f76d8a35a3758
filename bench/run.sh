#!/usr/bin/env bash
# Builds the load harness from source and runs it; this is BENCHMARK.json's
# command. Everything it writes stays inside the checkout: the Go build
# cache and the binary under .bench_build/, durable stores and trace.json
# under bench/out/.
#
#   bash bench/run.sh --workload inproc_hot --seed 1 --seconds 20 --trace 0
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry counters
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/muppet-bench" .) >&2
exec "$build/muppet-bench" --out "$here/out" "$@"
