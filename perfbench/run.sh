#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it
# with the given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload paper-all --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export GOPROXY=off GOSUMDB=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
