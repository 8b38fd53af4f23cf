#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# repository root. Everything the build writes (binary and Go build cache)
# stays under .bench_build/, so the run touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/teastore-bench" .)
cd "$root"
exec "$build/teastore-bench" "$@"
