#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash hdbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash hdbench/run.sh compare <dir-a> <dir-b>
#
# Every file the build writes (Go build cache, temporaries, the binary and
# the trace files of traced runs) lands under .bench_build in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
go -C "$here" build -o "$out/hdbench" . >&2
cd "$root"
exec "$out/hdbench" "$@"
