#!/usr/bin/env bash
# Builds the mstxd benchmark from the checkout it sits in and runs it
# from the checkout root. Build cache, binary and scratch files stay
# under .bench_build in the checkout.
#
#   bash mstxbench/run.sh --workload <campaign-cold|mc-cold|tenants-hot> \
#       --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
    GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/mstxbench" && go build -o "$build/mstxbench" .)
cd "$root"
exec "$build/mstxbench" "$@"
