#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, passing every
# argument through (see bench/README.md). Go's build cache, temp files and
# config/telemetry directory are redirected under .bench_build so a run
# reads and writes only inside the checkout, and the toolchain never tries
# to download anything.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The bench binary runs the experiment entry points in its traced child,
# so it is built with the CLI's profile to keep the two comparable.
pgo=off
if [ -f cmd/paraverser/default.pgo ]; then pgo="$root/cmd/paraverser/default.pgo"; fi
go -C bench build -pgo="$pgo" -o "$build/bench" .
exec "$build/bench" "$@"
