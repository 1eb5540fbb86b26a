#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload paper-pairs --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and output stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set) in the checkout; nothing is fetched.
set -euo pipefail

dir="${CARGO_TARGET_DIR:-.bench_build}"
case "$dir" in
/*) ;;
*) dir="$(pwd)/$dir" ;;
esac
out="$dir/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
