#!/usr/bin/env bash
# Builds the rackni benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload <chip-sweep|rack-sparse|rack-service> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
