#!/usr/bin/env bash
# Builds simrankd and simbench from this checkout's sources, then runs
# one benchmark invocation; the arguments pass through, e.g.
#
#   bash simbench/run.sh --workload ingest --seed 1 --seconds 25 --trace 0
#
# Every build and run file, the Go build cache and the go command's own
# config and telemetry included, stays under .bench_build/ in the
# checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0
cd "$root/simbench"
go build -o "$out/bin/simbench" .
go build -o "$out/bin/simrankd" repro/cmd/simrankd
cd "$root"
exec "$out/bin/simbench" -simrankd "$out/bin/simrankd" -out "$out/simbench" "$@"
