#!/bin/sh
# Builds the harness from source and runs it with the given arguments.
# Everything the build writes (Go build cache, toolchain config, the binary)
# stays under .bench_build in the checkout this script sits in.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		go build -o "$build/openhire-bench" . >&2
)
cd "$root"
exec "$build/openhire-bench" "$@"
