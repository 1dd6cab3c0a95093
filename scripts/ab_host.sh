#!/bin/sh
# Host cost of the working tree against a parent commit, by alternating
# benchmark runs: sh scripts/ab_host.sh [-p REV] [-w WORKLOAD[,WORKLOAD...]]
# [-n SEEDS] [-s SECONDS] [-d DIR] [-g]. Run from the repository root.
#
# Unpacks `git archive REV` (default HEAD) into DIR/parent (default: a
# directory next to the working tree), then for each seed 1..SEEDS and
# each workload W of the comma list (default varmail) runs
# `python3 perfbench/run.py --workload W --seed i --seconds S --trace 0`
# once in the parent copy and once in the working tree, alternating which
# goes first. So `-w serve,varmail` shows a claim on one workload and the
# no-regression side on the other from one run, under the same machine
# load. Each run builds from its own source. Fails (exit 1) if any
# `VIRTUAL` line of a seed differs between the two sides or any operation
# failed on either side; prints, per workload, per seed and as medians,
# `setup_s` and `peak_rss_mb` of both sides, and the number of seeds on
# which the change's peak is lower. Nothing under perfbench/ is written;
# every run's output is kept in DIR/out.
#
# Then, per workload and per metric, each side's quartiles and one
# verdict, by the rule for a small sandbox: "gain" only when the change
# is better in at least nine of every ten pairs (ties count for neither)
# and the medians differ by more than the parent's inter-quartile range;
# otherwise "unresolved" when the parent's own spread (its IQR over its
# median) is wider than the metric's bound in BENCHMARK.json and not
# every change run beats every parent run, else "no worse within bound"
# or, exiting 1, "worse beyond bound" when the change's median is worse
# than the parent's by more than that bound.
#
# With -g, each side's built perfbench.exe then runs once more directly
# per workload,
# seed 1, with at most 6 repetitions, under OCAMLRUNPARAM=v=0x400 (which
# prints the collector's totals at exit and changes nothing it does), and
# the script prints per repetition the minor words allocated and the
# words promoted to the major heap, and the major heap's peak
# (top_heap_words). Promoted words set how much garbage floats in the
# major heap, and with it the peak.
set -eu

rev=HEAD workloads=varmail seeds=10 seconds=30 gc=0
dir="$(dirname "$(pwd)")/$(basename "$(pwd)")-ab"
while getopts p:w:n:s:d:g opt; do
  case "$opt" in
  p) rev=$OPTARG ;;
  w) workloads=$(echo "$OPTARG" | tr ',' ' ') ;;
  n) seeds=$OPTARG ;;
  s) seconds=$OPTARG ;;
  d) dir=$OPTARG ;;
  g) gc=1 ;;
  *) echo "usage: sh scripts/ab_host.sh [-p REV] [-w WORKLOAD[,WORKLOAD...]] [-n SEEDS] [-s SECONDS] [-d DIR] [-g]" >&2
     exit 2 ;;
  esac
done
[ -f dune-project ] && [ -d lib ] || { echo "ab_host: run from the repository root" >&2; exit 2; }

tree=$(pwd)
rm -rf "$dir/parent"
mkdir -p "$dir/parent" "$dir/out"
git archive "$rev" | tar -x -C "$dir/parent"

run() { # side workload seed
  if [ "$1" = parent ]; then cd "$dir/parent"; else cd "$tree"; fi
  python3 perfbench/run.py --workload "$2" --seed "$3" \
    --seconds "$seconds" --trace 0 > "$dir/out/$2-$1-$3.txt" \
    2> "$dir/out/$2-$1-$3.err" || {
    echo "ab_host: $1 $2 seed $3 failed; see $dir/out/$2-$1-$3.err" >&2
    exit 1
  }
  cd "$tree"
}

i=1
while [ "$i" -le "$seeds" ]; do
  for workload in $workloads; do
    if [ $((i % 2)) -eq 1 ]; then run parent "$workload" "$i"; run change "$workload" "$i"
    else run change "$workload" "$i"; run parent "$workload" "$i"; fi
  done
  i=$((i + 1))
done

if [ "$gc" = 1 ]; then
  for workload in $workloads; do
    for side in parent change; do
      if [ "$side" = parent ]; then cd "$dir/parent"; else cd "$tree"; fi
      OCAMLRUNPARAM=v=0x400 ./_build/default/perfbench/perfbench.exe \
        --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 \
        --max-reps 6 > "$dir/out/$workload-$side-gc.txt" \
        2> "$dir/out/$workload-$side-gc.err" || {
        echo "ab_host: $side $workload GC run failed; see $dir/out/$workload-$side-gc.err" >&2
        exit 1
      }
      cd "$tree"
    done
  done
fi

status=0
for workload in $workloads; do
python3 - "$dir/out" "$workload" "$seeds" "$gc" "$tree/BENCHMARK.json" <<'EOF' || status=1
import json, statistics, sys

out, workload, seeds, gc = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
spec = {m["name"]: m for m in json.load(open(sys.argv[5]))["end_to_end"]}
bad = []
rows = {"parent": [], "change": []}
for seed in range(1, seeds + 1):
    virt = {}
    for side in rows:
        lines = open("%s/%s-%s-%d.txt" % (out, workload, side, seed)).read().splitlines()
        virt[side] = [l for l in lines if l.startswith("VIRTUAL")]
        result = json.loads(lines[-1])
        if result["failed"] > 0:
            bad.append("seed %d %s: %d operations failed" % (seed, side, result["failed"]))
        m = result["metrics"]
        rows[side].append((m["setup_s"]["value"], m["peak_rss_mb"]["value"]))
    if not virt["parent"] or virt["parent"] != virt["change"]:
        bad.append("seed %d: VIRTUAL lines differ (or are missing)" % seed)
print("%s: seed  setup_s parent  change   peak_rss_mb parent  change" % workload)
for seed in range(1, seeds + 1):
    (ps, pr), (cs, cr) = rows["parent"][seed - 1], rows["change"][seed - 1]
    print("%s: %4d  %13.3f %7.3f   %18.1f %7.1f" % (workload, seed, ps, cs, pr, cr))
med = lambda side, k: statistics.median(r[k] for r in rows[side])
print("%s: median %13.3f %7.3f   %18.1f %7.1f" % (
    workload, med("parent", 0), med("change", 0), med("parent", 1), med("change", 1)))
lower = sum(1 for p, c in zip(rows["parent"], rows["change"]) if c[1] < p[1])
print("%s: peak_rss_mb lower on the change in %d of %d seeds" % (workload, lower, seeds))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

for k, name in enumerate(("setup_s", "peak_rss_mb")):
    par = [r[k] for r in rows["parent"]]
    chg = [r[k] for r in rows["change"]]
    sign = 1 if spec[name]["better"] == "lower" else -1
    better = lambda c, p: sign * (p - c) > 0
    wins = sum(1 for p, c in zip(par, chg) if better(c, p))
    (p1, pm, p3), (c1, cm, c3) = quartiles(par), quartiles(chg)
    iqr, bound = p3 - p1, spec[name]["bound"]
    print("%s: %-11s quartiles parent %.3f %.3f %.3f  change %.3f %.3f %.3f" % (
        workload, name, p1, pm, p3, c1, cm, c3))
    if 10 * wins >= 9 * seeds and better(cm, pm) and abs(cm - pm) > iqr:
        verdict = "gain"
    elif iqr > bound * abs(pm) and not all(better(c, p) for c in chg for p in par):
        verdict = "unresolved (parent IQR %.1f %% of its median, bound %g %%)" % (
            100 * iqr / abs(pm), 100 * bound)
    elif sign * (cm - pm) > bound * abs(pm):
        verdict = "worse beyond bound"
        bad.append("%s: median %.3f against %.3f, beyond the %g %% bound" % (name, cm, pm, 100 * bound))
    else:
        verdict = "no worse within bound (%g %%)" % (100 * bound)
    print("%s: %-11s change better in %d of %d pairs, median %+.1f %%, parent IQR %.3f: %s" % (
        workload, name, wins, seeds, 100 * (cm - pm) / pm, iqr, verdict))
if gc:
    print("%s: GC, seed 1   reps  minor words/rep  promoted words/rep  top_heap_words" % workload)
    for side in ("parent", "change"):
        stats = {}
        for line in open("%s/%s-%s-gc.err" % (out, workload, side)):
            key, _, value = line.partition(":")
            if key in ("minor_words", "promoted_words", "top_heap_words"):
                stats[key] = float(value)
        reps = 0
        for line in open("%s/%s-%s-gc.txt" % (out, workload, side)):
            if line.startswith("repetitions:"):
                reps = int(line.split()[1]) + int(line.split()[3])
        if not reps or len(stats) < 3:
            bad.append("%s GC run: no repetition count or GC totals" % side)
            continue
        print("%s: %-13s %4d  %15.0f  %18.0f  %14.0f" % (
            workload, side, reps, stats["minor_words"] / reps,
            stats["promoted_words"] / reps, stats["top_heap_words"]))
for b in bad:
    print("ab_host: " + b, file=sys.stderr)
sys.exit(1 if bad else 0)
EOF
done
exit $status
