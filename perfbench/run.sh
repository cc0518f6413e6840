#!/usr/bin/env bash
# Builds the auditherm benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# benchmark's scratch stores all live under .bench_build/ in the
# working directory, so nothing is written outside it.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
