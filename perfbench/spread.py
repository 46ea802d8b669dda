#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S]

Runs the benchmark once per seed (first-seed, first-seed+1, ...) and prints,
for every end-to-end metric, the median, the quartiles (Python's
statistics.quantiles(values, n=4)), and the interquartile distance as a
share of the median next to a third of the metric's bound in
BENCHMARK.json, the steadiness target.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                            "--workload", args.workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"],
                           capture_output=True, text=True, cwd=ROOT)
        result = json.loads(r.stdout.strip().split("\n")[-1])
        if r.returncode or not result["correct"]:
            sys.exit("seed %d: run failed\n%s%s" % (seed, r.stdout, r.stderr))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, v[-1]) for n, v in values.items())), flush=True)
    print("%-16s %12s %12s %12s %8s %8s" %
          ("metric", "median", "q1", "q3", "spread", "bound/3"))
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print("%-16s %12.5g %12.5g %12.5g %8.3f %8.3f" %
              (m["name"], med, q1, q3, (q3 - q1) / med, m["bound"] / 3))


if __name__ == "__main__":
    main()
