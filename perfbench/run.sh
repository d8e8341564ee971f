#!/usr/bin/env bash
# Builds tpqd and the benchmark from the checkout this script sits in,
# then runs one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set), including the Go build cache.
set -euo pipefail

# Fall back to the Go distribution's default install location.
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache HOME=$out/home \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/tpqd" tpq/cmd/tpqd)
exec "$out/bin/perfbench" -tpqd "$out/bin/tpqd" -dir "$out/run-$$" -spans "$out/spans.jsonl" "$@"
