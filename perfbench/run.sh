#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and scratch file stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build="$root/$build"
mkdir -p "$build/home" "$build/tmp"

export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTELEMETRY=off

go -C perfbench build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" --work "$build/perfbench" --golden perfbench/golden "$@"
