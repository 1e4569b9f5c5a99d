#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (binary, Go build and module caches) stays
# under .bench_build at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/redn-twoclock" .) >&2
exec "$build/redn-twoclock" "$@"
