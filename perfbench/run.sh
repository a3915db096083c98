#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it from the checkout's root. Every build and cache file stays
# under .bench_build/ in that checkout.
#
#   bash perfbench/run.sh --workload static-scale --seed 1 --seconds 35 --trace 0
#   bash perfbench/run.sh compare before.json after.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp" "${build}/config"
export GOCACHE="${build}/gocache" GOTMPDIR="${build}/tmp" TMPDIR="${build}/tmp" \
	GOPATH="${build}/gopath" XDG_CONFIG_HOME="${build}/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
cd "${root}"
exec "${build}/perfbench" "$@"
