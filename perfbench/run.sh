#!/usr/bin/env bash
# Builds the benchmark (a module of its own that uses the repository's
# packages through a replace directive) and runs it with the given flags:
#
#   bash perfbench/run.sh --workload ingest-dense --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root: the Go build cache, the binary and per-run scratch files.
# No module is downloaded; the build uses the local toolchain only.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/home" "$build/tmp"

HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" \
	GOMODCACHE="$build/gomodcache" \
	GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" \
	GOENV=off \
	GOFLAGS= \
	GOPROXY=off \
	GOTOOLCHAIN=local \
	GOTELEMETRY=off \
	go -C perfbench build -o "$build/perfbench" .

exec "$build/perfbench" "$@"
