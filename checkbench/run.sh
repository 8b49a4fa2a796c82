#!/usr/bin/env bash
# Builds the checkd benchmark from the checkout it is run in and runs it.
# Run from the root of the repository; every argument goes to checkbench:
#
#   bash checkbench/run.sh --workload hot-cache --seed 1 --seconds 10 --trace 0
#
# The build and every Go cache stay under .bench_build in the checkout.
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/checkbench" && go build -o "$out/checkbench" .)
exec "$out/checkbench" "$@"
