#!/usr/bin/env bash
# Builds cmd/bench into .bench_build/ under the current directory (the root
# of a checkout) and runs it with the arguments given. Everything the Go
# toolchain writes -- build cache, module cache, temporary files, its
# telemetry directory -- is kept under .bench_build too, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# The module replaces repro with ../.., so this fails (and the script exits
# non-zero before printing any result) where the repository is not around it.
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
