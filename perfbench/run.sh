#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload cpu-study --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary all live under .bench_build/ in the checkout, so the
# first run compiles everything and later runs reuse it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
# The report names the revision under test; outside a git checkout it
# says "unknown".
if [ -e "$root/.git" ]; then
	PERFBENCH_REV=$(git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)
	export PERFBENCH_REV
fi
exec "$out/perfbench" "$@"
