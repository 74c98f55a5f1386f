#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload paper-tables --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes (build
# cache, temporary files, telemetry) stays under the build directory,
# $CARGO_TARGET_DIR or .bench_build by default.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]] || ! grep -q '^module macaw$' go.mod; then
    echo "perfbench: run from the root of the macaw repository (its go.mod and internal/ are missing here)" >&2
    exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-mod" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod" \
    GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off TMPDIR="$out/go-tmp"

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
