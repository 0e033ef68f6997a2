#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments (see `run.sh -h`). Run from the repository root:
#
#   bash perfbench/run.sh --workload write-commit --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files) goes under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
env HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local \
	GOTELEMETRY=off GOFLAGS= CGO_ENABLED=0 \
	go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
