#!/usr/bin/env bash
# Builds localitybench from this checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash bench/run.sh --workload sim-pull --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the binary, the Go build
# cache, the go command's config and telemetry files, and the temporary
# files (the serve workload's result store). The go command must not fetch
# anything: the benchmark needs only the Go toolchain and this checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp" "$build/config"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" \
	TMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local

# bench/go.mod replaces the repository module with ../, so the build
# fails, and no result is printed, when the sources are not there.
(cd bench && go build -o "$build/localitybench" ./localitybench)
exec "$build/localitybench" "$@"
