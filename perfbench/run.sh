#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload fig5-8cpu --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout's root. Build outputs, the Go build cache and
# the go command's own config and telemetry files stay under
# .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

go -C perfbench build -buildvcs=false -o "$out/perfbench" .

sha=unknown
if [ -d .git ]; then
	sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" -git-sha "$sha" "$@"
