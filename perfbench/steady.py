#!/usr/bin/env python3
"""Steadiness check: run each workload k times with different seeds.

    python3 perfbench/steady.py [-k 10] [--workload W ...] [--seconds S]

For every end-to-end metric it prints the median, quartiles, min and
max over the k runs, the interquartile spread as a share of the median
(the figure BENCHMARK.json's bounds are set against) next to the
metric's bound, and the share of failed operations.  A spread above a
third of the bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit("%s seed %d: exit %d" % (workload, seed,
                                                  out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append",
                   choices=("query-mem", "serve-zipf", "lsm-churn"),
                   help="default: the workloads BENCHMARK.json lists")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    a = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in a.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for i in range(a.k):
            r = run_once(w, a.first_seed + i, a.seconds)
            runs.append(r)
            print("  %s seed %d: correct=%s attempted=%d failed=%d" %
                  (w, a.first_seed + i, r["correct"], r["attempted"],
                   r["failed"]), file=sys.stderr)
        print("== %s (%d runs, %ds)" % (w, a.k, a.seconds))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("   failed share: %s; all correct: %s" %
              (shares, all(r["correct"] for r in runs)))
        print("   %-18s %12s %12s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "min", "max", "spread",
               "bound"))
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs
                    if name in r["metrics"]]
            if len(vals) < 2:
                print("   %-18s missing" % name)
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bounds[name] / 3 else "  <-- above bound/3"
            print("   %-18s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f %6.3f%s" %
                  (name, med, q1, q3, min(vals), max(vals), spread,
                   bounds[name], flag))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
