#!/usr/bin/env bash
# Builds the daemon under test (cmd/quicksand) and the benchmark program
# from this checkout, then runs one benchmark pass. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload flood-table --seed 1 --seconds 10 --trace 0
#
# Build outputs, logs, traces and run history go to $CARGO_TARGET_DIR,
# or .bench_build when it is unset; nothing is written outside the
# checkout. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin" "$build/go/tmp"

export GOCACHE=$build/go/cache GOMODCACHE=$build/go/mod GOPATH=$build/go/path \
	GOTMPDIR=$build/go/tmp XDG_CONFIG_HOME=$build/go/config XDG_CACHE_HOME=$build/go/xdg-cache \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

go build -o "$build/bin/quicksand" ./cmd/quicksand >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -quicksand "$build/bin/quicksand" -state "$build" "$@"
