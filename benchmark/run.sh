#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything
# the build writes — the Go build cache included — stays under .bench_build
# in the checkout, so a run touches nothing outside it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C "$here" -o "$build/hierbench" .
cd "$(dirname "$here")"
exec "$build/hierbench" "$@"
