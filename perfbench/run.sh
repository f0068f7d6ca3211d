#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload bcp-steady --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare <parent-results-dir> <change-results-dir>
#
# Build outputs and the Go build cache stay inside the checkout, under
# .bench_build (or $CARGO_TARGET_DIR when set); per-run records go to
# .bench_results.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ must both be present)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# The toolchain's caches, temporary files and user configuration (which
# includes its telemetry counters) all live under the build directory.
GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod \
	go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
