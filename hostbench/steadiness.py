#!/usr/bin/env python3
"""Steadiness self-check of the hostbench benchmark.

Runs two sets of every workload, seeds 1..N in each, a minute apart,
then prints for each end-to-end metric of each workload the median and
quartiles of both sets, the spread (Q3 - Q1) / median of each set and
the drift of set B's median from set A's, all against the metric's
bound in BENCHMARK.json. Run it from the root of a checkout:

    python3 hostbench/steadiness.py                  # 10 seeds, 2 sets
    python3 hostbench/steadiness.py --runs 5 --workloads coll-512
    python3 hostbench/steadiness.py --save runs.json # keep the raw runs
    python3 hostbench/steadiness.py --replay hostbench/runs/1000flows-3.json

A metric FAILs when a spread other than setup_s's, or the drift in the
worse direction, exceeds its bound; it is marked "tight" above a third
of the bound. --bound replaces every bound, e.g. to see whether a 4-6%
drift would pass a tighter one. Every run must also be correct with
zero failed operations, and runs of the same workload and seed must
print the same output digest. Exits 1 on any failure.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Seconds between the two sets, so that they are taken at different times.
GAP_S = 60
DIGEST = re.compile(r"^digest (\S+) seed (\d+) ([0-9a-f]{16})$")


def run_once(workload, seed, seconds):
    """One `run.py` run: (result JSON, digest)."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "hostbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: run.py exited "
                 f"{done.returncode}")
    digest = next((m.group(3) for m in map(DIGEST.match, lines) if m), "")
    return json.loads(lines[-1]), digest


def run_set(label, workloads, seeds, seconds):
    runs = []
    for workload in workloads:
        for seed in seeds:
            result, digest = run_once(workload, seed, seconds)
            runs.append({"workload": workload, "seed": seed,
                         "digest": digest, "result": result})
            values = " ".join(f"{k}={v['value']:.6g}"
                              for k, v in result["metrics"].items())
            print(f"[set {label}] {workload} seed {seed}: {values}",
                  flush=True)
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def check(spec, set_a, set_b, bound_override=None):
    """Print the comparison table; return the number of failures."""
    failures = 0
    for run in set_a + set_b:
        r = run["result"]
        if not r["correct"] or r["failed"] != 0:
            print(f"FAIL {run['workload']} seed {run['seed']}: "
                  f"correct={r['correct']} failed={r['failed']}")
            failures += 1
    digests = {}
    for run in set_a + set_b:
        digests.setdefault((run["workload"], run["seed"]),
                           set()).add(run["digest"])
    for (workload, seed), seen in sorted(digests.items()):
        if len(seen) != 1:
            print(f"FAIL {workload} seed {seed}: digests differ {seen}")
            failures += 1

    header = (f"{'workload':<14} {'metric':<12} {'bound':>5}  "
              f"{'A median [Q1, Q3]':>32} {'spread':>7}  "
              f"{'B median [Q1, Q3]':>32} {'spread':>7} {'drift':>7}")
    print(header)
    for workload in sorted({run["workload"] for run in set_a}):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bound = bound_override or metric["bound"]
            a = summary([run["result"]["metrics"][name]["value"]
                         for run in set_a if run["workload"] == workload])
            b = summary([run["result"]["metrics"][name]["value"]
                         for run in set_b if run["workload"] == workload])
            drift = (b[0] - a[0]) / a[0]
            worse = drift if metric["better"] == "lower" else -drift
            spreads = [] if name == "setup_s" else [a[3], b[3]]
            verdict = "ok"
            if worse > bound or any(s > bound for s in spreads):
                verdict = "FAIL"
                failures += 1
            elif worse > bound / 3 or any(s > bound / 3 for s in spreads):
                verdict = "tight"
            print(f"{workload:<14} {name:<12} {bound:>5.2f}  "
                  f"{a[0]:>12.6g} [{a[1]:.6g}, {a[2]:.6g}] {a[3]:>7.2%}  "
                  f"{b[0]:>12.6g} [{b[1]:.6g}, {b[2]:.6g}] {b[3]:>7.2%} "
                  f"{drift:>+7.2%} {verdict}")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10,
                        help="seeds (runs) per workload and set")
    parser.add_argument("--workloads", default="",
                        help="comma list (default: all)")
    parser.add_argument("--save", help="write both sets' runs here")
    parser.add_argument("--bound", type=float,
                        help="check against this bound instead of "
                             "BENCHMARK.json's")
    parser.add_argument("--replay", metavar="FILE",
                        help="check the runs saved by --save instead of "
                             "running")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.replay:
        with open(args.replay) as f:
            saved = json.load(f)
        set_a, set_b = saved["a"], saved["b"]
    else:
        workloads = ([w for w in args.workloads.split(",") if w] or
                     [w["name"] for w in spec["workloads"]])
        seeds = range(1, args.runs + 1)
        seconds = spec["run_seconds"]
        set_a = run_set("A", workloads, seeds, seconds)
        time.sleep(GAP_S)
        set_b = run_set("B", workloads, seeds, seconds)
        if args.save:
            with open(args.save, "w") as f:
                json.dump({"a": set_a, "b": set_b}, f, indent=1)
    sys.exit(1 if check(spec, set_a, set_b, args.bound) else 0)


if __name__ == "__main__":
    main()
