#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload small-msg --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
