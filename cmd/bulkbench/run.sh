#!/usr/bin/env bash
# Builds bulkbench from source and runs it with the given arguments.
#
#   bash cmd/bulkbench/run.sh --workload tm-lu --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# traced run's files all stay under .bench_build in the working directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd cmd/bulkbench && go build -o "$build/bulkbench" .)
exec "$build/bulkbench" "$@"
