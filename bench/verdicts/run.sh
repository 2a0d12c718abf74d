#!/bin/sh
# Entry point of the time-to-verdict benchmark (bench/verdicts/README.md).
# Run from the root of a checkout:
#
#   sh bench/verdicts/run.sh --workload W --seed N --seconds S --trace 0|1
#
# It builds the CLI and the harness from source (dune, no shared cache),
# then runs one measurement; the last line of stdout is the JSON result.
# Everything it writes stays inside the checkout (_build, .bench_work,
# BENCH_trace_<W>.json).
set -eu
if [ ! -f dune-project ] || [ ! -f bin/tfiris_cli.ml ] || [ ! -f bench/verdicts/verdicts.ml ]; then
  echo "bench/verdicts/run.sh: run it from the root of a tfiris checkout" >&2
  exit 2
fi
mkdir -p .bench_work
TMPDIR="$PWD/.bench_work" DUNE_CACHE=disabled dune build --root . --display=quiet \
  bin/tfiris_cli.exe bench/verdicts/verdicts.exe >&2
exec _build/default/bench/verdicts/verdicts.exe "$@"
