#!/bin/sh
# Build the benchmark from source and run it; every argument is passed
# through (see perfbench/README.md).  Run from the repository root:
#
#   sh perfbench/run.sh --workload guest --seed 1 --seconds 10 --trace 0
#   sh perfbench/run.sh --smoke
#
# Build output goes to _build/ and build messages to stderr, so the
# benchmark's own standard output stays a report whose last line is the
# JSON result.  The shared dune cache is off so nothing is written
# outside the checkout.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
