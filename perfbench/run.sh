#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload bulk_pull --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and run-time scratch files all stay
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out" "$@"
