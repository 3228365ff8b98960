#!/usr/bin/env bash
# Builds the decvec benchmark from the sources of the checkout it sits in
# and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper-cold|paper-warm|dvad-sweep \
#       --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build, relative to the
# repository root): the Go build cache, temporary files, the binary, the
# benchmark's scratch caches and its span files. The binary is built with
# the dvabench PGO profile when the checkout has one, as `make bench` and
# the CLI are.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
    echo "perfbench: no decvec sources at $root to build the benchmark from" >&2
    exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
    /*) ;;
    *) out="$root/$out" ;;
esac
out="$out/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/work"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
pgo=off
if [ -f "$root/cmd/dvabench/default.pgo" ]; then
    pgo="$root/cmd/dvabench/default.pgo"
fi
(cd "$here" && go build -pgo="$pgo" -o "$out/perfbench" .) >&2

cd "$root"
exec "$out/perfbench" -work "$out/work" "$@"
