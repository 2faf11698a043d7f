#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload build --seed 1 --seconds 15 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The binary, the run's files and the go command's cache, temporary
# files and configuration (including its local telemetry counters,
# under XDG_CONFIG_HOME) all stay under .bench_build in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
