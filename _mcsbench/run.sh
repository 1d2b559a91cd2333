#!/usr/bin/env bash
# Builds the mcs-serve benchmark from the checkout around it and runs it,
# from the checkout root:
#
#   bash _mcsbench/run.sh --workload synth-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# store directories, span dumps) stays under .bench_build/ at the root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build"
mkdir -p "$work/tmp" "$work/config"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOPATH="$work/gopath"
export GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/_mcsbench" && go build -o "$work/mcsbench" .)
cd "$root"
exec "$work/mcsbench" "$@"
