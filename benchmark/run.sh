#!/usr/bin/env bash
# Builds the verifier and the benchmark from source, then runs one
# benchmark run: bash benchmark/run.sh --workload W --seed S
# --seconds T --trace 0|1 (see benchmark/README.md).  Build output goes
# to stderr; the last line of stdout is the run's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d bin ] || [ ! -d lib ]; then
  echo "benchmark: not a checkout of the verifier (no dune-project, bin/ or lib/ here)" >&2
  exit 2
fi
targets=(./bin/cspc.exe ./benchmark/main.exe)
case " $* " in
  *" --trace 1 "*) targets+=(./benchmark/layers/layers.exe) ;;
esac
# the shared dune cache lives outside the checkout; build without it
DUNE_CACHE=disabled dune build --root . --display quiet "${targets[@]}" >&2
exec ./_build/default/benchmark/main.exe run "$@"
