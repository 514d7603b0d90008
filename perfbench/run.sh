#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository. The binary, the Go build
# cache, the go command's telemetry and every file the benchmark writes
# stay under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/bin"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
