#!/usr/bin/env bash
# Builds linkbench from this checkout and runs it with the given arguments.
# Run from the repository root:
#   bash linkbench/run.sh --workload awgn-link --seed 1 --seconds 10 --trace 0
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/linkbench" && go build -o "$out/linkbench" .)
exec "$out/linkbench" "$@"
