#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the root
# of a checkout) and runs one workload; the arguments are those of
# `main.exe run`.  Build output goes to standard error, so the last line of
# standard output is the run's result.
set -euo pipefail
root="$(pwd)"
dune build --root "$root" --display quiet cfqbench/main.exe >&2
exec "$root/_build/default/cfqbench/main.exe" run "$@"
