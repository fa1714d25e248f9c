#!/usr/bin/env python3
"""Compare two bench JSON reports (bench_simcore, bench_coll, bench_dcn).

Usage: tools/bench_compare.py BASELINE.json CANDIDATE.json
           [--max-regress PCT] [--require-identical]
       tools/bench_compare.py --hostbench LOG

Both files must come from the same benchmark; the kind is read from
the "bench" field. Points are matched by the kind's key. For each match
the tool prints the metric ratio, and fails (exit 1) when:

  * the candidate is more than --max-regress percent below the
    baseline on any point (default 10; timing noise on shared boxes
    easily reaches a few percent, so the default is deliberately
    loose — tighten it on quiet machines), or
  * --require-identical is given and the kind's identity fields
    differ on any point. Those fields are wall-clock independent:
    any difference means the engine's *behaviour* changed, not just
    its speed, and the perf comparison is void.

Kinds:
  simcore  points keyed by (name, rate); metric mflits_per_second
           (wall-clock throughput); identity flits_delivered /
           end_cycle / stable
  coll     points keyed by (name, rate); metric busbw_gbps (simulated
           bus bandwidth — fully deterministic, so use
           --require-identical and treat ANY drift as behavioural);
           identity steps / messages / flow_us / model_us / failed
  dcn      points keyed by (design, workload, load); metric
           flows_per_s (flows / seconds, the cell's wall-clock flow
           throughput); identity completed / failed / rerouted and
           every fct_* and slowdown_* field

--hostbench LOG summarizes an A/B log of `python3 hostbench/run.py`
runs instead: one line per run output, `old|new WORKLOAD SEED digest
...` or `old|new WORKLOAD SEED {json result line}` (`#` lines are
comments). A run of one side pairs with the other side's run of the
same workload and seed. For each workload and metric it prints both
medians, the parent's (old side's) interquartile range, the change's
delta and the number of pairs the change won, then failed ops. The
quartiles are Python's statistics.quantiles default ("exclusive",
positions (n + 1)p). Exit 1 when a pair's digests differ or a seed ran
on one side only.

When a provenance manifest sits next to a report (the benches write
`REPORT.json.manifest.json` siblings), its resolved configuration is
compared too: two reports whose configs differ were not measuring the
same thing, and the comparison fails before any ratio is printed.
Reports without manifests (older baselines) skip the check with a
note.

Only the standard library is used, so the script runs anywhere the
repo builds.
"""

import argparse
import json
import os
import statistics
import sys


def named_points(doc):
    """bench_simcore / bench_coll: a flat "points" list."""
    return {(p["name"], p["rate"]): p for p in doc["points"]}


def dcn_points(doc):
    """bench_dcn: the campaign's cells, with their flow throughput."""
    return {
        (c["design"], c["workload"], c["load"]):
            dict(c, flows_per_s=c["flows"] / c["seconds"]
                 if c["seconds"] > 0 else 0.0)
        for c in doc["campaign"]["cells"]
    }


# Per-benchmark comparison contract: how to key the points, which
# field is the higher-is-better metric, and which fields must be
# bit-identical for the run to count as behaviourally unchanged.
BENCH_KINDS = {
    "simcore": {
        "points": named_points,
        "metric": "mflits_per_second",
        "identity": ("flits_delivered", "end_cycle", "stable"),
    },
    "coll": {
        "points": named_points,
        "metric": "busbw_gbps",
        "identity": ("steps", "messages", "flow_us", "model_us",
                     "failed"),
    },
    "dcn": {
        "points": dcn_points,
        "metric": "flows_per_s",
        "identity": ("completed", "failed", "rerouted", "fct_avg_s",
                     "fct_p50_s", "fct_p99_s", "fct_p999_s",
                     "slowdown_avg", "slowdown_p50", "slowdown_p99",
                     "slowdown_p999"),
    },
}


def point_label(key):
    return "/".join(f"{k:.2f}" if isinstance(k, float) else str(k)
                    for k in key)


def load_points(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        sys.exit(f"bench_compare: cannot read {path}: {err.strerror}"
                 " (generate it with `bench_simcore --json`, "
                 "`bench_coll --json` or `bench_dcn --json`)")
    except json.JSONDecodeError as err:
        sys.exit(f"bench_compare: {path} is not valid JSON ({err})")
    kind = doc.get("bench")
    if kind not in BENCH_KINDS:
        sys.exit(f"bench_compare: {path} is not a known bench report "
                 f"(bench={kind!r}, expected one of "
                 f"{sorted(BENCH_KINDS)})")
    try:
        return kind, doc.get("smoke", False), \
            BENCH_KINDS[kind]["points"](doc)
    except (KeyError, TypeError) as err:
        sys.exit(f"bench_compare: {path} is missing expected "
                 f"bench_{kind} fields ({err})")


def load_manifest(report_path):
    """Load the report's provenance sibling, or None when absent."""
    path = report_path + ".manifest.json"
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_compare: {path} is unreadable ({err})")
    if "wss_run_manifest" not in doc:
        sys.exit(f"bench_compare: {path} is not a wss run manifest")
    return doc


def check_manifests(baseline, candidate):
    """Fail when both sides carry manifests whose configs differ.

    Phase timings and artifact hashes legitimately differ run to run;
    the resolved configuration must not — a config mismatch means the
    two reports measured different workloads and every ratio below
    would be noise.
    """
    base = load_manifest(baseline)
    cand = load_manifest(candidate)
    if base is None or cand is None:
        for path, doc in ((baseline, base), (candidate, cand)):
            if doc is None:
                print(f"note: no manifest next to {path}, "
                      "provenance unchecked")
        return
    print(f"manifest identity: baseline {base.get('identity_hash')} "
          f"candidate {cand.get('identity_hash')}")
    base_cfg = base.get("config", {})
    cand_cfg = cand.get("config", {})
    mismatches = [
        f"  {key}: {base_cfg.get(key, '<absent>')!r} vs "
        f"{cand_cfg.get(key, '<absent>')!r}"
        for key in sorted(base_cfg.keys() | cand_cfg.keys())
        if base_cfg.get(key) != cand_cfg.get(key)
    ]
    if mismatches:
        sys.exit("bench_compare: manifest configs differ — the "
                 "reports measured different workloads:\n" +
                 "\n".join(mismatches))
    print("manifest configs match")


def summarize_hostbench(path):
    """Print the per-workload A/B summary of a hostbench log.

    Returns 1 when a pair's digests differ or a seed ran on one side
    only: such a log proves nothing about the change.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = [(m["name"], m["better"])
               for m in bench["end_to_end"] + bench.get("per_layer", [])]
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        sys.exit(f"bench_compare: cannot read {path}: {err.strerror}")
    runs = {}  # (workload, seed) -> side -> {"digest", "result"}
    for number, line in enumerate(lines, 1):
        if not line.strip() or line.startswith("#"):
            continue
        side, workload, seed, rest = (line.split(" ", 3) + [""] * 3)[:4]
        run = runs.setdefault((workload, seed), {}).setdefault(side, {})
        try:
            if side not in ("old", "new") or not rest:
                raise ValueError("expected `old|new WORKLOAD SEED "
                                 "digest ...` or `... {json}`")
            if rest.startswith("digest "):
                run["digest"] = rest
            else:
                run["result"] = json.loads(rest)
        except ValueError as err:
            sys.exit(f"bench_compare: {path}:{number}: {err}")

    problems, pairs, mismatched = [], {}, set()
    for (workload, seed), sides in sorted(runs.items()):
        ran = [s for s in ("old", "new") if "result" in sides.get(s, {})]
        if len(ran) < 2:
            problems.append(f"{workload} seed {seed} ran on the "
                            f"{' and '.join(ran) or 'no'} side only")
            continue
        old, new = sides["old"], sides["new"]
        if old.get("digest") != new.get("digest"):
            mismatched.add(workload)
            problems.append(f"{workload} seed {seed}: "
                            f"{old.get('digest')!r} vs "
                            f"{new.get('digest')!r}")
        pairs.setdefault(workload, []).append(
            (old["result"], new["result"]))

    for workload, ab in sorted(pairs.items()):
        n = len(ab)
        state = "DIGESTS DIFFER" if workload in mismatched \
            else "digests equal"
        print(f"{workload}: {n} pairs, {state}")
        for name, better in metrics:
            if name not in ab[0][0]["metrics"]:
                continue
            old = [o["metrics"][name]["value"] for o, _ in ab]
            new = [c["metrics"][name]["value"] for _, c in ab]
            base, cand = statistics.median(old), statistics.median(new)
            q1, _, q3 = statistics.quantiles(old, n=4) if n > 1 \
                else (0.0, 0.0, 0.0)
            won = sum((c < o) if better == "lower" else (c > o)
                      for o, c in zip(old, new))
            delta = (cand / base - 1.0) * 100.0 if base else 0.0
            print(f"  {name:12s} parent median {base:g} "
                  f"(IQR {q3 - q1:.3g})  change median {cand:g}  "
                  f"{delta:+.1f}%  change better in {won}/{n}")
        print(f"  failed ops: parent {sum(o['failed'] for o, _ in ab)}"
              f", change {sum(c['failed'] for _, c in ab)}")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(
        description="Diff two bench JSON reports, or summarize a "
                    "hostbench A/B log.")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("candidate", nargs="?")
    parser.add_argument(
        "--hostbench", metavar="LOG",
        help="summarize an A/B log of hostbench/run.py runs")
    parser.add_argument(
        "--max-regress", type=float, default=10.0, metavar="PCT",
        help="fail if any point is more than PCT%% below the "
             "baseline (default: %(default)s)")
    parser.add_argument(
        "--require-identical", action="store_true",
        help="fail unless the identity fields match point-for-point "
             "(behavioural bit-identity)")
    args = parser.parse_args()
    if args.hostbench:
        if args.baseline or args.candidate:
            parser.error("--hostbench takes no report arguments")
        return summarize_hostbench(args.hostbench)
    if not args.candidate:
        parser.error("need BASELINE.json and CANDIDATE.json")

    check_manifests(args.baseline, args.candidate)
    base_kind, base_smoke, base = load_points(args.baseline)
    cand_kind, cand_smoke, cand = load_points(args.candidate)
    if base_kind != cand_kind:
        sys.exit(f"refusing to compare bench={base_kind!r} against "
                 f"bench={cand_kind!r}")
    if base_smoke != cand_smoke:
        sys.exit("refusing to compare a --smoke run against a full "
                 "run: the workloads differ")
    metric = BENCH_KINDS[base_kind]["metric"]
    identity = BENCH_KINDS[base_kind]["identity"]

    common = sorted(base.keys() & cand.keys())
    if not common:
        sys.exit("bench_compare: no common points between "
                 f"{args.baseline} and {args.candidate} — were they "
                 "produced by different benchmarks?")
    for key in sorted(base.keys() ^ cand.keys()):
        side = "baseline" if key in base else "candidate"
        print(f"note: {point_label(key)} only in {side}, skipped")

    failures = []
    print(f"{'point':44s} {'base':>9s} {'cand':>9s} {'ratio':>7s}  "
          f"identical")
    for key in common:
        b, c = base[key], cand[key]
        ratio = (c[metric] / b[metric]
                 if b[metric] > 0 else float("inf"))
        identical = all(b[f] == c[f] for f in identity)
        label = point_label(key)
        print(f"{label:44s} {b[metric]:9.3f} {c[metric]:9.3f} "
              f"{ratio:6.2f}x  {'yes' if identical else 'NO'}")
        if ratio < 1.0 - args.max_regress / 100.0:
            failures.append(
                f"{label}: {((1.0 - ratio) * 100.0):.1f}% below "
                f"baseline (limit {args.max_regress}%)")
        if args.require_identical and not identical:
            mismatches = ", ".join(
                f"{f} {b[f]} vs {c[f]}"
                for f in identity if b[f] != c[f])
            failures.append(
                f"{label}: behavioural mismatch ({mismatches})")

    if failures:
        print()
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("\nbench_compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
