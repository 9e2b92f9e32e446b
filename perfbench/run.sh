#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Run it from the root of the repository:
#
#	bash perfbench/run.sh --workload page-load --seed 1 --seconds 36 --trace 0
#
# The Go build cache, the toolchain's own configuration and the binary
# live in .bench_build/, and module and toolchain downloads are off, so
# nothing is fetched or written outside the checkout. The build fails,
# and the script exits non-zero without printing a result, when the
# simulator's module is not beside perfbench/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
# The first build stamps the VCS revision into the binary for the
# provenance line; where git cannot report on the directory, build
# without the stamp.
cd "$root/perfbench"
go build -o "$build/perfbench" . 2>/dev/null || go build -buildvcs=false -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
