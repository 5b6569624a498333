#!/usr/bin/env bash
# Builds farmbench from source and runs it from the repository root with
# the given arguments, e.g.
#
#   bash bench/run.sh                                  # every workload, 5 timed batches
#   bash bench/run.sh --workload storm-all --seed 3 --seconds 24 --trace 0
#
# The Go build cache, temp files and the binary live in .bench_build/ at
# the repository root, so nothing is written outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOCACHE" "$GOTMPDIR"

(cd "$root/bench" && go build -o "$build/farmbench" ./farmbench)
cd "$root"
exec "$build/farmbench" "$@"
