#!/usr/bin/env bash
# Builds the end-to-end benchmark from source inside the checkout and runs it
# with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload read --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache go under $CARGO_TARGET_DIR (default
# .bench_build), so nothing outside the checkout is written.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench.bin" .)
exec "$out/e2ebench.bin" "$@"
