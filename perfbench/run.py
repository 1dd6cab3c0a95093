#!/usr/bin/env python3
"""Build and run the HiNFS repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fileserver --seed 1 --seconds 20 --trace 0

Builds perfbench/perfbench.exe with dune (the first build compiles the whole
simulator and takes a few minutes) and runs it with the same arguments. The
last line of standard output is the benchmark's JSON result; dune's output
goes to standard error. perfbench/NOTES.md describes the workloads and metrics.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
# The program bounds its own run time by --seconds; this is a backstop.
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the repository root; dune-project and lib/ "
              "are missing here", file=sys.stderr)
        return 2
    # The dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled", OCAMLRUNPARAM="b")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "--display", "quiet",
         "./perfbench/perfbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([EXE] + sys.argv[1:], env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark ran past %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
