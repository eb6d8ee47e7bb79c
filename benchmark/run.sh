#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run
# it from the repository root:
#
#   bash benchmark/run.sh --workload exact-kernels --seed 1 --seconds 15 --trace 0
#
# The build, its caches and the Go tool's own configuration live in
# .bench_build/ under the current directory, and the toolchain never
# reaches the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/benchmark" && go build -o "$out/benchmark" .)
exec "$out/benchmark" --workdir "$out" "$@"
