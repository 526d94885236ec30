#!/usr/bin/env bash
# Builds the AutoNCS benchmark from the source tree it sits in, then runs it.
# Run from the repository root, e.g.
#
#   bash perfbench/run.sh --workload physical --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache, the go tool's own config and telemetry
# files, and trace files all go to .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
