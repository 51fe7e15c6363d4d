#!/usr/bin/env bash
# Builds cmd/certserver and the benchmark driver from the checkout this
# script lives in, then runs the driver with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload certify-large-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span dumps go under
# $CARGO_TARGET_DIR (default .bench_build at the checkout root), so the
# benchmark writes nothing outside the checkout. A failed build exits
# non-zero before any result is printed.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off GOENV=off

(cd "$root" && go build -o "$out/certserver" ./cmd/certserver) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -server "$out/certserver" -out "$out" "$@"
