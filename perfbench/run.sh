#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the root of the checkout; every argument passes through:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build writes — the Go build cache included — stays
# under .bench_build/perfbench, so a run reads and writes only inside
# the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local

# The benchmark is its own module (perfbench/go.mod) that replaces
# burstlink with this checkout, so a tree without the repository's
# sources fails here, before anything is measured.
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# internal/codec's test binary times the two unexported codec kernels
# (BenchmarkSAD, BenchmarkDCT8) for the traced run's kernel table.
go test -c -o "$out/codec.test" ./internal/codec

exec "$out/perfbench" "$@"
