#!/usr/bin/env bash
# Build the benchmark from the checkout's sources, then run it with the
# given arguments (see perfbench.ml for them).  Run from the root of the
# repository.  Build output goes to stderr, so the benchmark's result
# stays the last line of stdout.
set -euo pipefail
dune build --root . --cache=disabled --display=quiet ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
