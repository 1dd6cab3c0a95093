#!/bin/sh
# Perf-baseline gate: run the short bench baseline twice and require
#   1. byte-identical BENCH_HINFS.json artifacts (the virtual clock makes
#      the whole pipeline deterministic; any divergence is a bug),
#   2. the fresh artifact byte-identical to the committed BENCH_HINFS.json
#      (a change that moves a cell commits the regenerated file), and
#   3. the schema's required histogram keys present with nonzero p99s for
#      the core op classes.
set -eu

cd "$(dirname "$0")/.."

dune build bench/main.exe

out1=$(mktemp /tmp/bench_hinfs_1.XXXXXX.json)
out2=$(mktemp /tmp/bench_hinfs_2.XXXXXX.json)
trap 'rm -f "$out1" "$out2"' EXIT

BENCH_HINFS_OUT="$out1" dune exec bench/main.exe -- baseline >/dev/null
BENCH_HINFS_OUT="$out2" dune exec bench/main.exe -- baseline >/dev/null

if ! cmp -s "$out1" "$out2"; then
    echo "bench_check FAIL: two seeded baseline runs differ" >&2
    diff "$out1" "$out2" | head -40 >&2 || true
    exit 1
fi

fail=0

# The committed artifact is what the source produces, byte for byte.
if [ -f BENCH_HINFS.json ] && ! cmp -s BENCH_HINFS.json "$out1"; then
    echo "bench_check FAIL: fresh baseline differs from the committed" \
         "BENCH_HINFS.json (commit the regenerated file and explain the" \
         "moved cells in CHANGES.md)" >&2
    diff BENCH_HINFS.json "$out1" | head -40 >&2 || true
    fail=1
fi

# Required structural keys.
for key in '"schema": "hinfs-bench"' '"experiments"' '"latency_ns"' \
           '"phases_ns"' '"counters"' '"throughput_ops_per_sec"'; do
    if ! grep -q "$key" "$out1"; then
        echo "bench_check FAIL: missing $key" >&2
        fail=1
    fi
done

# Required op-class histograms with a present, nonzero p99. Each op class
# appears once per (workload, fs) experiment; require every occurrence to
# carry a positive p99.
for op in 'op.read' 'op.write' 'op.open' 'op.fsync'; do
    if ! grep -q "\"$op\"" "$out1"; then
        echo "bench_check FAIL: no \"$op\" histogram in baseline" >&2
        fail=1
    fi
done

# Any histogram summary whose p99 is absent or zero is a regression: the
# emitter writes p99 unconditionally, so count p99 lines against summary
# blocks and reject literal zeros.
summaries=$(grep -c '"count":' "$out1")
p99s=$(grep -c '"p99":' "$out1")
if [ "$summaries" -ne "$p99s" ]; then
    echo "bench_check FAIL: $summaries summaries but $p99s p99 fields" >&2
    fail=1
fi
# Gauges and wait phases may legitimately sit at zero (an idle queue, an
# uncontended bandwidth slot); syscall latencies must not — every op pays
# at least the syscall overhead. Restrict the zero check to latency_ns.
if awk '/"latency_ns"/,/"phases_ns"/' "$out1" | grep -q '"p99": 0,'; then
    echo "bench_check FAIL: zero p99 in an op-class latency histogram" >&2
    fail=1
fi

# Threshold gate: hold the fresh baseline to the committed artifact. Any
# core op class (op.read / op.write / op.open) whose p50 or p99 grew by
# more than 10% over the committed BENCH_HINFS.json in any shared
# experiment is a perf regression. Experiments present on only one side
# (new cells, retired cells) are reported but do not gate.
if [ -f BENCH_HINFS.json ]; then
    if ! python3 scripts/bench_compare.py BENCH_HINFS.json "$out1"; then
        echo "bench_check FAIL: latency regression vs committed baseline" >&2
        fail=1
    fi
else
    echo "bench_check: no committed BENCH_HINFS.json, skipping threshold gate"
fi

if [ "$fail" -eq 0 ]; then
    echo "bench_check OK: deterministic baseline with complete histograms"
fi
exit "$fail"
