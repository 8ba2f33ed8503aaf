#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build writes (binary, Go build cache, temp
# files) stays under .bench_build/ at the checkout's root, so a run reads and
# writes nothing outside the checkout. The first build compiles the standard
# library into that cache; later ones take a fraction of a second.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$build/ncsbench" .) >&2
exec "$build/ncsbench" "$@"
