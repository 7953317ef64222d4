#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it.
# Run from the repository root; arguments go to perfbench, e.g.
#
#   bash perfbench/run.sh --workload oltp --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and the runs' working data all stay
# under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
# The go command keeps its telemetry counters under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
