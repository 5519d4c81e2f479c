#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (toolchain cache included, so nothing is written outside the
# checkout) and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The build fails, and so does this
# script, when the repository's own module is not next to perfbench/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Everything the go command writes (build cache, temp files, its
# config and local telemetry) stays under .bench_build; the module
# needs nothing from the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
