#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload social-text --seed 113 --seconds 35 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build): the Go build cache, the
# go command's config and telemetry (XDG_CONFIG_HOME), the binary,
# generated inputs and span files.
set -euo pipefail
build_dir=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build_dir"
build_dir=$(cd "$build_dir" && pwd)
mkdir -p "$build_dir/gocache" "$build_dir/gotmp" "$build_dir/gomod" "$build_dir/config"
export GOCACHE="$build_dir/gocache" GOTMPDIR="$build_dir/gotmp" GOMODCACHE="$build_dir/gomod"
export XDG_CONFIG_HOME="$build_dir/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build_dir/perfbench-bin" .) >&2
exec "$build_dir/perfbench-bin" --out "$build_dir/perfbench" "$@"
