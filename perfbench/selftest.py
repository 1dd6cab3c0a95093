#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

They take several minutes, so they are not part of `dune runtest`.

1. determinism: the same seed run twice gives identical virtual-clock metrics;
2. tracing: a traced run's virtual-clock metrics equal the untraced run's
   (a difference is a trace bug, never averaged away);
3. seed sweep: each simulated workload over several seeds with short windows,
   listing the seeds whose simulation aborts;
4. the known abort: fileserver with 2 simulated threads, seed 2 and a 100 ms
   window dies inside the simulation; the benchmark must report it as a
   failed run with its seed and backtrace, and exit normally;
5. crash enumeration (part of a traced varmail run) at the crashmc_smoke
   parameters passes its checks and, at seed 42, explores 319 states, 2,593
   images and 682 recovery images.

Exits 0 when checks 1, 2, 4 and 5 hold; the sweep only reports.
"""

import json
import subprocess
import sys

SHORT = ["--seconds", "1", "--max-reps", "1"]
QUICK = SHORT + ["--warmup-ms", "0", "--window-ms", "100"]


def run(*args):
    out = subprocess.run(["python3", "perfbench/run.py"] + list(args),
                         capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("selftest: %s exited %d\n%s" %
                         (" ".join(args), out.returncode, out.stderr))
    tagged = {}
    for line in lines:
        tag, _, rest = line.partition(" ")
        tagged.setdefault(tag, []).append(rest)
    return json.loads(lines[-1]), tagged


def virtual(tagged, tag="VIRTUAL"):
    return json.loads(tagged[tag][0]) if tag in tagged else None


def main():
    failures = []

    def check(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for w in ["fileserver", "varmail", "serve"]:
        args = ["--workload", w, "--seed", "7"] + (
            SHORT if w == "serve" else QUICK)
        _, a = run(*args)
        _, b = run(*args)
        check(virtual(a) is not None and virtual(a) == virtual(b),
              "%s: seed 7 twice gives identical virtual-clock metrics" % w)
        result, t = run(*(args[:4] + ["--trace", "1"] + args[4:]))
        untraced, traced = virtual(t), virtual(t, "VIRTUAL-TRACED")
        same = (untraced is not None and traced is not None and
                all(traced.get(k) == v for k, v in untraced.items()))
        check(same and virtual(a) == untraced and result["correct"],
              "%s: traced run reproduces the untraced virtual-clock metrics" % w)

    aborting = {}
    for w, seeds in [("fileserver", range(1, 7)), ("varmail", range(1, 7)),
                     ("serve", range(1, 3))]:
        for s in seeds:
            args = ["--workload", w, "--seed", str(s)] + (
                SHORT if w == "serve" else QUICK)
            _, tagged = run(*args)
            if "RUN-FAILED" in tagged:
                aborting.setdefault(w, []).append(s)
    print("sweep: seeds that abort: %s" % (aborting or "none"), flush=True)

    result, tagged = run("--workload", "fileserver", "--seed", "2",
                         "--threads", "2", *QUICK)
    failed = " ".join(tagged.get("RUN-FAILED", []))
    check(not result["correct"] and "seed 2" in failed
          and "txn already committed" in failed,
          "fileserver, 2 threads, seed 2: abort reported as a failed run")

    result, _ = run("--workload", "varmail", "--seed", "42", "--trace", "1",
                    *QUICK)
    counts = [result["metrics"]["crashmc." + k]["value"]
              for k in ("states", "images", "recovery_images")]
    check(result["correct"] and counts == [319, 2593, 682],
          "crash enumeration at seed 42 passes its checks: %s" % counts)

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
