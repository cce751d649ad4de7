#!/usr/bin/env bash
# Dump the output of every CLI and example into one directory, one file
# per run, so that two trees compare with a single `diff -r`:
#
#   make outputs OUT=dir SCALE=s
#   bash scripts/outputs.sh dir [scale]
#
# SCALE (default 1) is garnet's -scale and also scales the virtual
# durations of the pingpong and dvis runs. The gqctl runs and the
# examples have fixed scenarios. Every run must exit 0; a failing run
# stops the script with its name. Paths in the dumps are relative to
# the output directory, so dumps taken in different places compare
# equal.
set -euo pipefail

out="${1:?usage: outputs.sh OUT [SCALE]}"
scale="${2:-1}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT

go build -o "$bin/" ./cmd/garnet ./cmd/gqctl ./cmd/pingpong ./cmd/dvis \
  ./examples/quickstart ./examples/visualization ./examples/cpureserve \
  ./examples/collectives ./examples/advance ./examples/selfhealing

# dur D scales the Go duration D (whole seconds) by $scale.
dur() { awk -v d="$1" -v s="$scale" 'BEGIN { printf "%gs", d * s }'; }

# run NAME CMD... runs CMD in the output directory with stdout to
# NAME.txt and stderr to NAME.err.
run() {
  name="$1"
  shift
  echo "outputs: $name"
  if ! (cd "$out" && "$@" >"$name.txt" 2>"$name.err"); then
    echo "outputs: $name failed:" >&2
    cat "$out/$name.err" >&2
    exit 1
  fi
}

mkdir -p "$out/svg"
run garnet-all "$bin/garnet" -exp all -scale "$scale" -svgdir svg

run gqctl "$bin/gqctl"
run gqctl-at "$bin/gqctl" -at 3s,12s,22s
run gqctl-metrics-prom "$bin/gqctl" metrics -format prom
run gqctl-metrics-json "$bin/gqctl" metrics -format json
run gqctl-events "$bin/gqctl" events
for id in 1 2 3 4; do
  run "gqctl-trace-$id" "$bin/gqctl" trace "$id"
done
run gqctl-ctrl "$bin/gqctl" ctrl

run pingpong "$bin/pingpong" -dur "$(dur 20)"
run pingpong-sweep "$bin/pingpong" -sweep -dur "$(dur 20)"

run dvis "$bin/dvis" -dur "$(dur 30)"
run dvis-snapshot "$bin/dvis" -dur "$(dur 30)" -snapshot dvis-snapshot.json
run dvis-from "$bin/dvis" -from dvis-snapshot.json

for ex in quickstart visualization cpureserve collectives advance selfhealing; do
  run "example-$ex" "$bin/$ex"
done
