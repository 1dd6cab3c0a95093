#!/bin/sh
# Size census, printed for the CI log (it gates nothing):
#
#   1. the line count of lib/**/*.ml and lib/**/*.mli;
#   2. the number of optional parameters declared in lib/**/*.mli;
#   3. every top-level [val] of a lib/**/*.mli that no file outside its
#      own module reads, searching lib, bench, bin, perfbench, examples
#      and test;
#   4. the line counts of the *.ml and *.mli files under bin, bench and
#      test, so code that leaves lib shows too.
#
# Step 3 is a textual heuristic. A value counts as read when another file
# names it through the module's own name or a [module X = ...M] alias of
# it, or names it bare in a file that opens or includes the module. It can
# miss a read made through a functor argument or a first-class module, so
# check a listed value with grep before deleting it.
#
# Usage: sh scripts/census.sh   (from any directory)

cd "$(dirname "$0")/.." || exit 1

lines=$(find lib -name '*.ml' -o -name '*.mli' | sort | xargs cat | wc -l)
echo "census: lib/**/*.ml{,i} lines: $lines"
opts=$(find lib -name '*.mli' | sort | xargs cat | grep -o '?[a-z_][A-Za-z0-9_]*:' | wc -l)
echo "census: optional parameters in lib/**/*.mli: $opts"

python3 - <<'EOF' || exit 1
import os, re

roots = ["lib", "bench", "bin", "perfbench", "examples", "test"]
sources = {}
for root in roots:
    for d, _, files in os.walk(root):
        if "_build" in d:
            continue
        for f in files:
            if f.endswith((".ml", ".mli")):
                p = os.path.join(d, f)
                with open(p, encoding="utf-8", errors="replace") as fh:
                    sources[p] = fh.read()

comment = re.compile(r"\(\*.*?\*\)", re.S)
code = {p: comment.sub(" ", s) for p, s in sources.items()}

def mod_of(path):
    return os.path.basename(path).rsplit(".", 1)[0].capitalize()

# Per file: the names it uses for each module, the modules it opens, the
# qualified names it reads and its bare words.
aliases, opens, qualified, words = {}, {}, {}, {}
for p, s in code.items():
    names = {}
    for a, target in re.findall(r"\bmodule\s+([A-Z]\w*)\s*=\s*([A-Z][\w.]*)", s):
        names.setdefault(target.split(".")[-1], set()).add(a)
    aliases[p] = names
    opened = set()
    for target in re.findall(r"\b(?:open!?|include)\s+([A-Z][\w.]*)", s):
        opened.add(target.split(".")[-1])
    for target in re.findall(r"\b([A-Z][\w.]*)\.\(", s):
        opened.add(target.split(".")[-1])
    opens[p] = opened
    qualified[p] = set(re.findall(r"\b([A-Z]\w*)\.([a-z_][\w']*)", s))
    words[p] = set(re.findall(r"(?<![.\w])([a-z_][\w']*)", s))

unused = []
for p in sorted(code):
    if not (p.startswith("lib/") and p.endswith(".mli")):
        continue
    m = mod_of(p)
    own = {p, p[:-1]}
    for v in re.findall(r"^val\s+([a-z_][\w']*)", code[p], re.M):
        if not any(
            any((q, v) in qualified[f] for q in {m} | aliases[f].get(m, set()))
            or (m in opens[f] and v in words[f])
            for f in code
            if f not in own
        ):
            unused.append("%s: %s" % (p, v))

print("census: mli values read only inside their own module: %d" % len(unused))
for u in unused:
    print("  " + u)
EOF

for dir in bin bench test; do
    n=$(find "$dir" -name '*.ml' -o -name '*.mli' | sort | xargs cat | wc -l)
    echo "census: $dir/**/*.ml{,i} lines: $n"
done
