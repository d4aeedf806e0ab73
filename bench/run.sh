#!/usr/bin/env bash
# Builds the benchmark and cmd/dicheckd from source, then runs the
# benchmark with the arguments given. Everything the build writes — Go's
# build and module caches, temp files, the two binaries — stays in
# .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off \
	GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOTOOLCHAIN=local
cd "$here"
go build -o "$build/bin/" . repro/cmd/dicheckd
exec "$build/bin/bench" -dicheckd "$build/bin/dicheckd" "$@"
