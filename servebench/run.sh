#!/usr/bin/env bash
# Builds generic-serve and the benchmark from the checkout this is started
# in, then runs one workload. Run it from the repository root:
#
#   bash servebench/run.sh --workload exact-eeg-single --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in that
# root, including the Go build cache, so the first run compiles the
# standard library and later runs reuse it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/generic-serve" || ! -f "$root/servebench/go.mod" ]]; then
	echo "servebench: run from the repository root (need go.mod, cmd/generic-serve and servebench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/go/cache" "$out/go/tmp" "$out/go/path" "$out/go/config"
export GOCACHE="$out/go/cache" GOTMPDIR="$out/go/tmp" GOPATH="$out/go/path" \
	XDG_CONFIG_HOME="$out/go/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/generic-serve" ./cmd/generic-serve
(cd "$root/servebench" && go build -o "$out/bin/servebench" .)
exec "$out/bin/servebench" -serve-bin "$out/bin/generic-serve" -out "$out" "$@"
