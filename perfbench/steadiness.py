#!/usr/bin/env python3
"""Measures how steady the benchmark is across seeds.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10]
                                    [--seconds 10] [--json OUT]

Runs the benchmark once per (workload, seed), untraced, and prints for every
end-to-end metric its median, quartiles and spread, the spread being the
distance between the first and third quartile (statistics.quantiles, n=4) as
a share of the median. Each spread is compared with the metric's bound in
BENCHMARK.json; the target is a third of the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=0,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    results = {}
    worst = 0.0
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds))
            print("  %s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.5g" % (k, v["value"])
                for k, v in runs[-1]["metrics"].items())))
            sys.stdout.flush()
        results[workload] = runs
        print("%s (%d seeds, %ds):" % (workload, len(seeds), seconds))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print("  %-18s median %-14.6g q1 %-12.6g q3 %-12.6g spread %.4f "
                  "(bound %.2f, %s)" % (
                      name, med, q1, q3, spread, bound,
                      "ok" if spread <= bound / 3 else
                      "within bound" if spread <= bound else "TOO WIDE"))
        sys.stdout.flush()
    print("worst spread / bound (setup_s excluded): %.3f" % worst)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
