#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload chan-dense --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file it writes (the Go build
# cache, the binary, the span dumps) lands under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d internal/msgpass ]]; then
	echo "perfbench: run from the root of an ssmfp checkout" >&2
	exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
