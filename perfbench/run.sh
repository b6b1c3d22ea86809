#!/usr/bin/env bash
# Builds busnet's benchmark from the source in this checkout and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-flat --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build cache, module cache and binary
# all live under .bench_build/ in that directory.
set -euo pipefail

# Fall back to the official distribution's default install location when
# go is not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOTELEMETRY=off \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
