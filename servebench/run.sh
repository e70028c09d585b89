#!/usr/bin/env bash
# Build `dadu` and the benchmark from this checkout, then run one
# benchmark invocation:
#   bash servebench/run.sh --workload track|cold|batch --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -f bin/dadu_cli.ml ] || [ ! -d lib/service ]; then
  echo "servebench: run from the root of a dadu source checkout" >&2
  exit 2
fi
dune build --root . ./bin/dadu_cli.exe ./servebench/servebench.exe 1>&2
exec ./_build/default/servebench/servebench.exe \
  --server-exe ./_build/default/bin/dadu_cli.exe "$@"
