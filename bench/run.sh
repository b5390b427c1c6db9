#!/usr/bin/env bash
# Builds hta-layers from this checkout and runs it with the given flags,
# from the checkout root, e.g.
#
#   bash bench/run.sh --workload stream-deep --seed 1 --seconds 20 --trace 0
#
# The binary and every Go cache live under .bench_build/ at the checkout
# root, and nothing is fetched: the bench module builds only against the
# product source next to it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off \
	GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local
go -C "$root/bench" build -o "$build/hta-layers" ./cmd/hta-layers
cd "$root"
exec "$build/hta-layers" "$@"
