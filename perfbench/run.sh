#!/usr/bin/env bash
# Builds the perfbench command from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-shinjuku --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry) and the binary itself stay under .bench_build/ in the
# current directory. The build fails, and so does this script, when the
# simulator's sources are not beside perfbench/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" ./cmd/perfbench)
exec "$out/perfbench" "$@"
