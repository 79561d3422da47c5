#!/bin/sh
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given flags. Run it from the repository root:
#
#   bash benchmark/run.sh --workload fig4-sweep --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the compiler's temporary files all stay
# under .bench_build/ in the repository root.
set -eu

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C benchmark build -o "$out/pressbenchmark" .
exec "$out/pressbenchmark" "$@"
