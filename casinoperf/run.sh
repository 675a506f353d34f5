#!/usr/bin/env bash
# Builds the casinoperf harness and casino-server from the sources of the
# checkout it is run from, then runs one benchmark workload. Run it from the
# repository root:
#
#   bash casinoperf/run.sh --workload figures-full --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/casinoperf.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/casinoperf"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" HOME="$out" GOTOOLCHAIN=local GOFLAGS=

go -C casinoperf build -o "$out/casinoperf" .
go -C casinoperf build -o "$out/casino-server" casino/cmd/casino-server

exec "$out/casinoperf" -repo "$root" -server-bin "$out/casino-server" -trace-dir "$out/trace" "$@"
