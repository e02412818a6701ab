#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Usage, from the repository root:
#
#   bash perfbench/run.sh --workload day-mono --seed 1 --seconds 40 --trace 0
#   bash perfbench/run.sh --selftest --seed 1
#
# Build caches, the binary and span dumps stay under .bench_build in the
# repository root (the directory holding perfbench/), which is also the
# benchmark's working directory. Without the repository's go.mod there
# the build fails and the script exits non-zero without a result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/home"

(
	cd "$here"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off \
		go build -trimpath -o "$out/perfbench" .
)
cd "$root"
exec "$out/perfbench" "$@"
