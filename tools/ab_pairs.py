#!/usr/bin/env python3
"""Interleaved A/B pairs of the end-to-end benchmark between two commits.

    python3 tools/ab_pairs.py --base REV --change REV --workload NAME
                              [--seed 1] [--seconds 30] [--pairs 10]

Checks each revision out with `git worktree add --detach` under a temporary
directory (removed again on exit, worktrees included), and runs
perfbench/run.py --trace 0 in each, with CARGO_TARGET_DIR unset so that
each side builds its own .bench_build from its own sources. Each pair runs
both sides once with the same seed; the side that runs first alternates
from pair to pair, so drift in the host's speed falls on both alike.

For every end-to-end metric of BENCHMARK.json (read from the change's
checkout) it prints each pair's change/base ratio, the median ratio, and
how many pairs the change won, judged by the metric's "better" field (ties
count for neither side). Exits non-zero if any run fails, reports
"correct": false, or counts a failed operation.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git"] + list(args), cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_side(tree, args):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    r = subprocess.run([sys.executable,
                        os.path.join(tree, "perfbench", "run.py"),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", "0"],
                       capture_output=True, text=True, cwd=tree, env=env)
    try:
        result = json.loads(r.stdout.strip().split("\n")[-1])
    except (ValueError, IndexError):
        result = None
    if r.returncode or result is None:
        sys.stderr.write(r.stdout[-2000:] + r.stderr[-2000:])
    return r.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="parent revision")
    ap.add_argument("--change", required=True, help="changed revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()

    revs = {"base": git("rev-parse", "--verify", args.base + "^{commit}"),
            "change": git("rev-parse", "--verify", args.change + "^{commit}")}
    tmp = tempfile.mkdtemp(prefix="ab_pairs.")
    trees = {}
    failed = False
    try:
        for side, rev in revs.items():
            trees[side] = os.path.join(tmp, side)
            git("worktree", "add", "--detach", trees[side], rev)
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
            spec = json.load(f)
        metrics = spec["end_to_end"]
        values = {side: {m["name"]: [] for m in metrics} for side in revs}
        print("base %s  change %s  workload %s  seed %d  %g s  %d pairs"
              % (revs["base"][:12], revs["change"][:12], args.workload,
                 args.seed, args.seconds, args.pairs), flush=True)
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                code, result = run_side(trees[side], args)
                if code or result is None or not result["correct"] \
                        or result["failed"]:
                    failed = True
                    print("pair %d %s: run failed (exit %d, %s)"
                          % (pair + 1, side, code,
                             "no result" if result is None else
                             "correct=%s failed=%s" % (result["correct"],
                                                       result["failed"])),
                          flush=True)
                    if result is None:
                        sys.exit(1)
                for name in values[side]:
                    values[side][name].append(
                        result["metrics"][name]["value"])
            print("pair %d (%s first): %s" % (pair + 1, order[0], " ".join(
                "%s=%.3f" % (m["name"],
                             values["change"][m["name"]][-1] /
                             values["base"][m["name"]][-1])
                for m in metrics if values["base"][m["name"]][-1])),
                flush=True)

        print("%-12s %7s %5s  %s" % ("metric", "median", "won", "ratios"))
        for m in metrics:
            b, c = values["base"][m["name"]], values["change"][m["name"]]
            ratios = [y / x for x, y in zip(b, c) if x]
            wins = sum(1 for x, y in zip(b, c)
                       if (y < x if m["better"] == "lower" else y > x))
            print("%-12s %7.3f %2d/%-2d  %s" % (
                m["name"], statistics.median(ratios) if ratios else
                float("nan"), wins, len(b),
                " ".join("%.3f" % r for r in ratios)))
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", tree],
                           cwd=ROOT, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
