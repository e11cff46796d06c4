#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload offline-quant --seed 1 --seconds 20 --trace 0
#
# Every build and cache file stays under .bench_build/ in the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# Build under a private name, then rename, so a concurrent run never executes
# a half-written binary.
go build -C perfbench -o "$out/perfbench.$$" .
mv -f "$out/perfbench.$$" "$out/perfbench"
exec "$out/perfbench" "$@"
