#!/usr/bin/env python3
"""Build and run the hostbench benchmark from the root of a wss checkout.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds hostbench/ (with the library sources under src/) into
$CARGO_TARGET_DIR/hostbench (default .bench_build/hostbench), runs one
workload, and prints the binary's log followed by one JSON line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The metric names and units come from BENCHMARK.json: end_to_end with
--trace 0, per_layer with --trace 1. Exits non-zero, without a result
line, when the build fails or the binary's metrics do not match.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_JOBS = "3"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (first time) and build; returns the binary's path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ beside hostbench/; run from a full wss checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "hostbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "hostbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", BUILD_JOBS])
    for step in steps:
        # Build output goes to stderr so stdout ends with the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "hostbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    binary = build()
    done = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--profiles", os.path.join(ROOT, "hostbench", "profiles")],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}")
    print("\n".join(lines[:-1]))

    result = json.loads(lines[-1])
    measured = result["metrics"]
    if set(measured) != set(units):
        fail("metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(units) - set(measured))}, "
             f"extra {sorted(set(measured) - set(units))}")
    result["metrics"] = {name: {"value": measured[name], "unit": units[name]}
                         for name in sorted(measured)}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
