#!/usr/bin/env bash
# Builds the benchmark and cmd/verifyd from this checkout's sources and runs
# the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload gen-corpus --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build), including the Go build cache.
set -euo pipefail

if [ ! -f perfbench/go.mod ] || [ ! -f go.mod ]; then
	echo "run.sh: run from the root of a repository checkout (go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/bin/" . muml/cmd/verifyd)
exec "$out/bin/perfbench" -verifyd "$out/bin/verifyd" -workdir "$out" "$@"
