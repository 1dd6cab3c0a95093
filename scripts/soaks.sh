#!/bin/sh
# The seed matrix of the oracle-checked soaks and the crashmc drivers.
#
# Builds once, then runs the six soaks and both crashmc drivers at their
# default seed and at SOAK_SEED 4242, 1001 and 90210: every seed drives a
# different op mix, crash fence, fault schedule and crash-image sample.
# Each run's stdout is printed under a "== <driver> seed=<n>" header, so
# two checkouts' soak output compares with one diff:
#
#   sh scripts/soaks.sh > a.txt   # in each checkout, then: diff a.txt b.txt
#
# The expected stdout is committed as test/soaks.expected, and
# scripts/ci.sh fails with the diff when a fresh run differs; a change
# that moves it regenerates the file with
#
#   sh scripts/soaks.sh > test/soaks.expected
#
# Failures go to stderr, and so does each run's wall-clock time (a
# "<name> seed=<n>: <s> s" line; it needs GNU date), so the log tracks
# host cost per program while stdout stays diffable. The script runs
# every program and exits 1 if any of them failed.

cd "$(dirname "$0")/.."
dune build || exit 1

status=0
for seed in default 4242 1001 90210; do
  for driver in fault_soak torture_soak nvcache_soak cow_soak shard_soak \
    serve_soak crashmc_smoke crashmc_recovery; do
    echo "== $driver seed=$seed"
    t0=$(date +%s%N)
    if [ "$seed" = default ]; then
      ./_build/default/test/$driver.exe || status=1
    else
      SOAK_SEED=$seed ./_build/default/test/$driver.exe || status=1
    fi
    ms=$((($(date +%s%N) - t0) / 1000000))
    printf '%s seed=%s: %d.%03d s\n' "$driver" "$seed" $((ms / 1000)) \
      $((ms % 1000)) >&2
  done
done
exit $status
