#!/bin/sh
# Host cost of the working tree against a parent commit, by alternating
# benchmark runs: sh scripts/ab_host.sh [-p REV] [-w WORKLOAD] [-n SEEDS]
# [-s SECONDS] [-d DIR]. Run from the repository root.
#
# Unpacks `git archive REV` (default HEAD) into DIR/parent (default: a
# directory next to the working tree), then for each seed 1..SEEDS runs
# `python3 perfbench/run.py --workload W --seed i --seconds S --trace 0`
# once in the parent copy and once in the working tree, alternating which
# goes first. Each run builds from its own source. Fails (exit 1) if any
# `VIRTUAL` line of a seed differs between the two sides or any operation
# failed on either side; otherwise prints, per seed and as medians,
# `setup_s` and `peak_rss_mb` of both sides. Nothing under perfbench/ is
# written; every run's output is kept in DIR/out.
set -eu

rev=HEAD workload=varmail seeds=10 seconds=30
dir="$(dirname "$(pwd)")/$(basename "$(pwd)")-ab"
while getopts p:w:n:s:d: opt; do
  case "$opt" in
  p) rev=$OPTARG ;;
  w) workload=$OPTARG ;;
  n) seeds=$OPTARG ;;
  s) seconds=$OPTARG ;;
  d) dir=$OPTARG ;;
  *) echo "usage: sh scripts/ab_host.sh [-p REV] [-w WORKLOAD] [-n SEEDS] [-s SECONDS] [-d DIR]" >&2
     exit 2 ;;
  esac
done
[ -f dune-project ] && [ -d lib ] || { echo "ab_host: run from the repository root" >&2; exit 2; }

tree=$(pwd)
rm -rf "$dir/parent"
mkdir -p "$dir/parent" "$dir/out"
git archive "$rev" | tar -x -C "$dir/parent"

run() { # side seed
  if [ "$1" = parent ]; then cd "$dir/parent"; else cd "$tree"; fi
  python3 perfbench/run.py --workload "$workload" --seed "$2" \
    --seconds "$seconds" --trace 0 > "$dir/out/$workload-$1-$2.txt" \
    2> "$dir/out/$workload-$1-$2.err" || {
    echo "ab_host: $1 seed $2 failed; see $dir/out/$workload-$1-$2.err" >&2
    exit 1
  }
  cd "$tree"
}

i=1
while [ "$i" -le "$seeds" ]; do
  if [ $((i % 2)) -eq 1 ]; then run parent "$i"; run change "$i"
  else run change "$i"; run parent "$i"; fi
  i=$((i + 1))
done

python3 - "$dir/out" "$workload" "$seeds" <<'EOF'
import json, statistics, sys

out, workload, seeds = sys.argv[1], sys.argv[2], int(sys.argv[3])
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
for b in bad:
    print("ab_host: " + b, file=sys.stderr)
sys.exit(1 if bad else 0)
EOF
