#!/usr/bin/env bash
# Builds the perfbench harness from the checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload scale --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# harness's checkpoint files all live under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/go-tmp" "$out/go-config"
export GOCACHE=$out/go-cache GOPATH=$out/go-path GOTMPDIR=$out/go-tmp TMPDIR=$out/go-tmp \
	XDG_CONFIG_HOME=$out/go-config GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/perfbench-work" "$@"
