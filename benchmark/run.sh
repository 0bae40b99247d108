#!/usr/bin/env bash
# Builds the benchmark from source, then runs it; arguments pass through.
# Run from the repository root, e.g.
#   bash benchmark/run.sh --workload route-congested --seed 1 --seconds 15 --trace 0
# The build stays inside the checkout: dune's shared cache is off.
set -euo pipefail
DUNE_CACHE=disabled dune build --root . --display quiet benchmark/tqec_bench.exe 1>&2
exec ./_build/default/benchmark/tqec_bench.exe "$@"
