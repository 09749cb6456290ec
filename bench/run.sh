#!/usr/bin/env bash
# Entry point of the repository's benchmark (see BENCHMARK.json and
# bench/README.md). Builds the real ragserver and shardnode binaries and
# the load generator from the checkout it is run from, then runs one
# workload:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything it writes — Go's build cache, the binaries, the servers'
# data directories — goes under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
# Without the program there is nothing to measure: refuse before starting
# anything.
if [[ ! -f go.mod || ! -d cmd/ragserver || ! -d cmd/shardnode ]]; then
  echo "bench/run.sh: $root holds no go.mod, cmd/ragserver and cmd/shardnode to build" >&2
  exit 2
fi
mkdir -p "$build/bin" "$build/tmp" "$build/config/go/telemetry"
# The go command starts a detached telemetry child (own session, not
# waited for) unless its mode file says off; a benchmark run may leave no
# process behind, so with the private config directory below it is off.
echo off > "$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
go build -o "$build/bin/" ./cmd/ragserver ./cmd/shardnode
(cd bench && go build -o "$build/bin/loadbench" ./loadbench)
exec "$build/bin/loadbench" -bin "$build/bin" "$@"
