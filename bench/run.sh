#!/usr/bin/env bash
# Builds gqbench from this checkout and runs it with the given
# arguments, from the directory the script was called in:
#
#   bash bench/run.sh --workload fig5-fluid --seed 1 --seconds 20 --trace 0
#
# The build and every cache the go command keeps stay inside the
# checkout, under .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail

bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench")
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
if [[ ! -f $root/go.mod ]]; then
	echo "run.sh: $root/go.mod not found: the benchmark builds the simulator from the checkout around bench/" >&2
	exit 1
fi

mkdir -p "$out/tmp"
export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$bench" && go build -o "$out/gqbench" ./cmd/gqbench)
exec "$out/gqbench" "$@"
