#!/usr/bin/env python3
"""Steadiness check: runs the workloads repeatedly and compares the runs.

    python3 perfbench/steady.py [--runs 10] [--seed 7]

Run it from the root of the repository. Each repetition runs every workload of
BENCHMARK.json once through run.py (untraced, same seed, the run length of
BENCHMARK.json), in BENCHMARK.json order on even repetitions
and in reverse order on odd ones. For each workload it prints every end-to-end
metric's median and quartiles, and a digest of the virtual-clock results (execs,
coverage series, bug ids, link counters) that a change meant only to speed up the
host can quote to show that every simulated statistic stayed the same.

Exits 1 when a host-clock metric's quartile spread, as a share of its median, is
wider than its bound in BENCHMARK.json, or when any virtual-clock result differs
between two runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_CLOCK = {"execs_per_host_s", "setup_s", "peak_rss_mb"}


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if run.returncode != 0:
        raise SystemExit("steady: %s failed (exit %d)" % (workload, run.returncode))
    result = json.loads(run.stdout.strip().splitlines()[-1])
    details_path = os.path.join(ROOT, ".bench_out",
                                "%s-seed%d-trace0.json" % (workload, seed))
    with open(details_path) as f:
        details = json.load(f)
    return result, details


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("need --runs >= 2")
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for workload in order:
            result, details = run_once(workload, args.seed, bench["run_seconds"])
            runs[workload].append((result, details))
            print("run %d %s: correct=%s attempted=%d failed=%d digest=%s" % (
                i + 1, workload, result["correct"], result["attempted"],
                result["failed"], details["digest"]), file=sys.stderr, flush=True)

    ok = True
    for workload in workloads:
        results = runs[workload]
        print("%s (seed %d, %d runs)" % (workload, args.seed, len(results)))
        print("  %-18s %14s %14s %14s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else float("inf")
            verdict = ""
            if name in HOST_CLOCK and spread > bound:
                verdict = "WIDER THAN BOUND"
                ok = False
            elif name not in HOST_CLOCK and len(set(values)) != 1:
                verdict = "VIRTUAL RESULT DIFFERS"
                ok = False
            print("  %-18s %14.6g %14.6g %14.6g %8.4f %6.2f %s" % (
                name, median, q1, q3, spread, bound, verdict))
        digests = {d["digest"] for _, d in results}
        failed = {(r["attempted"], r["failed"], r["correct"]) for r, _ in results}
        if len(digests) != 1:
            print("  virtual-clock digest DIFFERS between runs: %s" % sorted(digests))
            ok = False
        else:
            print("  virtual-clock digest %s (identical in all runs)" % digests.pop())
        if len(failed) != 1 or not all(r["correct"] for r, _ in results):
            print("  attempted/failed/correct differ or a run was not correct: %s"
                  % sorted(failed))
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
