#!/bin/sh
# Tier-1 CI gate: full build, the whole test suite, then the soak and
# smoke aliases re-run explicitly so their output lands in the CI log
# even when dune serves them from cache, the perf-baseline determinism
# check, and finally the benchmark self-test.
#
# The oracle-checked soaks and both crashmc drivers additionally run
# under a small SOAK_SEED matrix (scripts/soaks.sh): every seed drives a
# different op mix, crash fence, fault schedule and crash-image sample,
# so three seeds triple the state space each gate covers without
# touching the (seeded, reproducible) default runtest pass.
set -eux

cd "$(dirname "$0")/.."

dune build
dune runtest

# Size of lib/ for the log (gates nothing): lines, optional parameters,
# .mli values no other module reads.
sh scripts/census.sh

dune build @obs-smoke --force
# Every hinfs_cli subcommand once (not in runtest, so tier-1 wall time
# does not move); each must exit 0.
dune build @cli-smoke --force

sh scripts/soaks.sh

sh scripts/bench_check.sh

# Benchmark self-test: fixed-seed crash-enumeration counts and metric
# plumbing of the repository benchmark (a few minutes).
python3 perfbench/selftest.py
