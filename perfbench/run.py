#!/usr/bin/env python3
"""Build and run the lcsearch benchmark.

    python3 perfbench/run.py --workload query-mem|serve-zipf|lsm-churn \
        --seed N --seconds S --trace 0|1 [--n N]

Run from the root of a source tree.  The script builds `lcsearch` and
the benchmark program `perfbench/main.exe` with dune (into `_build`,
with the dune cache off), runs it, and passes its output through: the
last line of standard output is the JSON result.  Scratch files (snapshots, span
files) go to `.perfbench_work/` in the tree.  The script exits non-zero
without a result when the tree cannot be built or a run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("query-mem", "serve-zipf", "lsm-churn")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a full lcsearch source tree (missing %s)" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT,
           "./bin/lcsearch.exe", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (dune exit %d)" % r.returncode)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--n", type=int, default=8192,
                   help="points per structure (default 8192)")
    a = p.parse_args()
    build()
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    lcsearch = os.path.join(ROOT, "_build", "default", "bin", "lcsearch.exe")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--n", str(a.n), "--lcsearch", lcsearch,
           "--work", os.path.join(ROOT, ".perfbench_work")]
    # main.exe and the server it starts share a fresh process group,
    # so nothing outlives this script even if main.exe dies.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
