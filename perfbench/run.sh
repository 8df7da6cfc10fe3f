#!/bin/sh
# Build the benchmark from source and run one workload. From the root of
# the source tree:
#
#   sh perfbench/run.sh --workload dashboard|adhoc|ingest --seed N \
#     --seconds S --trace 0|1
#
# Build output goes to standard error; the last line of standard output is
# the result object.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of the source tree" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe 1>&2
# the run header records the commit; "unknown" outside a git checkout
PERFBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT
exec ./_build/default/perfbench/main.exe "$@"
