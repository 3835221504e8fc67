#!/usr/bin/env bash
# The benchmark's one command: build the harness from source, then run it.
#
#   bash bench/run.sh --workload scan_heavy --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, binaries) stays under
# bench/out/, so a run reads and writes only inside its checkout.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/bin
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -o out/bin/bench .
exec out/bin/bench "$@"
