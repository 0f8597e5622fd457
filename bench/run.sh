#!/bin/sh
# Builds the benchmark from the source tree it is run in and runs it with
# the given arguments. Run from the repository root:
#
#   sh bench/run.sh --workload fig8-cold --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/, so the run reads and writes nothing outside the tree.
set -eu

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: run from the root of a dcasim source tree" >&2
	exit 1
fi

out=$PWD/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GO111MODULE=on GOWORK=off
go build -buildvcs=false -o "$out/dcabench" ./bench
exec "$out/dcabench" "$@"
