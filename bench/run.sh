#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json "command"): builds the
# bench from this directory and runs it with the arguments given.
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/: the Go build cache, Go's own scratch and state
# directories (HOME is pointed there), the binaries, and the servers'
# data directories.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"
export HOME="$build/home"
unset XDG_CACHE_HOME XDG_CONFIG_HOME
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -C "$here" -o "$build/bin/anmat-bench" .
exec "$build/bin/anmat-bench" -root "$root" "$@"
