#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given flags.
# The Go caches live there too, so nothing is written outside the
# checkout and nothing is fetched. Fails, without printing a result,
# when the repo's source is not there to build against.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$src" -o "$out/avgpipe-benchmark" .
exec "$out/avgpipe-benchmark" "$@"
