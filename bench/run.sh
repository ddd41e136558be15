#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json "command"): builds the
# driver from bench/ with every build artefact inside the checkout and
# runs it. The driver builds cmd/dmapnode itself.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOWORK=off
# The go command keeps its module cache under GOPATH and its telemetry
# counters under the user's config dir: both stay in the checkout too.
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/dmapbench" .)
exec "$build/dmapbench" -repo "$root" "$@"
