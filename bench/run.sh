#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the arguments given. Everything the build
# and the run write (Go build cache, binary, WAL directories, traces) stays
# under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/rxbench" .)
cd "$root"
exec "$out/rxbench" "$@"
