#!/bin/sh
# Tier-1 CI gate: full build, the whole test suite, then the soak and
# smoke aliases re-run explicitly so their output lands in the CI log
# even when dune serves them from cache, the perf-baseline determinism
# check, and finally the benchmark self-test.
#
# The oracle-checked soaks additionally run under a small SOAK_SEED
# matrix: every seed drives a different op mix, crash fence, and fault
# schedule, so three seeds triple the state space each gate covers
# without touching the (seeded, reproducible) default runtest pass.
set -eux

cd "$(dirname "$0")/.."

dune build
dune runtest

dune build @crashmc-recovery --force
dune build @obs-smoke --force
# Every hinfs_cli subcommand once (not in runtest, so tier-1 wall time
# does not move); each must exit 0.
dune build @cli-smoke --force

for seed in 4242 1001 90210; do
  SOAK_SEED=$seed dune build @fault-soak --force
  SOAK_SEED=$seed dune build @torture-soak --force
  SOAK_SEED=$seed dune build @nvcache-soak --force
  SOAK_SEED=$seed dune build @snapshot-soak --force
  SOAK_SEED=$seed dune build @shard-soak --force
  SOAK_SEED=$seed dune build @chaos-soak --force
  SOAK_SEED=$seed dune build @serve-soak --force
done

sh scripts/bench_check.sh

# Benchmark self-test: fixed-seed crash-enumeration counts and metric
# plumbing of the repository benchmark (a few minutes).
python3 perfbench/selftest.py
