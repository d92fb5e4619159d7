#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from the checkout's
# sources and run one repetition (or `all` / `compare`) with the
# arguments given. Everything the build writes stays inside the
# checkout, under .bench_build/: Go's build and module caches, its
# scratch directory, and (through XDG_CONFIG_HOME) the go command's
# telemetry counters, which would otherwise land in ~/.config.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
(
	cd bench
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
	export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
	go build -o "$out/nvwal-bench" .
)
exec "$out/nvwal-bench" "$@"
