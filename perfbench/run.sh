#!/bin/sh
# Build the benchmark and the CLI from source, then run one measurement:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr so the last
# line of stdout is always the result object.
set -eu
dune build --root . perfbench/perfbench.exe bin/cec_tool.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
