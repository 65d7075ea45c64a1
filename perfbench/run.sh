#!/usr/bin/env bash
# Build the benchmark and the teamsim binary from source, then run one
# workload. Run from the repository root:
#   bash perfbench/run.sh --workload sweep-adpm --seed 1 --seconds 40 --trace 0
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a source checkout" >&2
  exit 2
fi
# the shared dune cache lives outside the checkout: keep the build inside
DUNE_CACHE=disabled dune build --root . ./perfbench/bench.exe ./bin/teamsim.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
