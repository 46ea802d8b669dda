#!/usr/bin/env python3
"""Interleaved A/B pairs of the end-to-end benchmark between two commits.

    python3 tools/ab_pairs.py --base REV --change REV --workload NAME
                              [--seed 1] [--seconds 30] [--pairs 10]
    python3 tools/ab_pairs.py --selftest

Checks each revision out with `git worktree add --detach` under a temporary
directory (removed again on exit, worktrees included), and runs
perfbench/run.py --trace 0 in each, with CARGO_TARGET_DIR unset so that
each side builds its own .bench_build from its own sources. Each pair runs
both sides once with the same seed; the side that runs first alternates
from pair to pair, so drift in the host's speed falls on both alike.

For every end-to-end metric of BENCHMARK.json (read from the change's
checkout) it prints each pair's change/base ratio, then one line per
metric: each side's median and quartiles, the base's interquartile range
(IQR) as a fraction of its median, the median ratio, how many pairs the
change won (judged by the metric's "better" field; ties count for neither
side), and one verdict:

  gain        the change won at least 9/10 of the pairs, and its median is
              better than the base's by more than the base's IQR;
  worse       the change's median is worse than the base's by more than
              the metric's BENCHMARK.json bound (a fraction of the base's
              median);
  unresolved  the base's IQR is wider than the bound, unless every change
              run beats every base run;
  same        anything else.

Quartiles are the inclusive ones of Python's statistics.quantiles (linear
interpolation between the sorted runs). Exits non-zero if any run fails,
reports "correct": false, or counts a failed operation. --selftest checks
the verdicts on canned numbers and runs nothing.
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
GAIN_WIN_SHARE = 0.9


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


def quartiles(xs):
    """(first quartile, median, third quartile) of xs."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def judge(base, change, better, bound):
    """Summary and verdict of one metric's paired runs (base[i] and
    change[i] ran in pair i)."""
    lower = better == "lower"
    beats = (lambda c, b: c < b) if lower else (lambda c, b: c > b)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    iqr = bq3 - bq1
    wins = sum(1 for b, c in zip(base, change) if beats(c, b))
    # The change's median gain over the base's, in the metric's units:
    # positive when the change is better.
    gain = (bmed - cmed) if lower else (cmed - bmed)
    if wins >= GAIN_WIN_SHARE * len(base) and gain > iqr:
        verdict = "gain"
    elif bmed and -gain / abs(bmed) > bound:
        verdict = "worse"
    elif bmed and iqr / abs(bmed) > bound and \
            not all(beats(c, b) for c in change for b in base):
        verdict = "unresolved"
    else:
        verdict = "same"
    return {"base": (bq1, bmed, bq3), "change": (cq1, cmed, cq3),
            "iqr_frac": iqr / abs(bmed) if bmed else float("nan"),
            "wins": wins, "pairs": len(base),
            "ratio": statistics.median([c / b for b, c in zip(base, change)
                                        if b]) if any(base) else float("nan"),
            "verdict": verdict}


def report(metrics, values):
    """Prints one summary line per metric."""
    print("%-12s %-31s %-31s %6s %7s %5s  %s"
          % ("metric", "base q1/median/q3", "change q1/median/q3",
             "iqr/md", "ratio", "won", "verdict"))
    for m in metrics:
        s = judge(values["base"][m["name"]], values["change"][m["name"]],
                  m["better"], m["bound"])
        print("%-12s %-31s %-31s %6.3f %7.3f %2d/%-2d  %s" % (
            m["name"], "%.4g/%.4g/%.4g" % s["base"],
            "%.4g/%.4g/%.4g" % s["change"], s["iqr_frac"], s["ratio"],
            s["wins"], s["pairs"], s["verdict"]))


def selftest():
    """Checks judge() on canned runs, one case per verdict and edge."""
    cases = [
        # A clear gain: 10/10 wins, medians 30 apart, base IQR 2.
        ("gain", [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [70, 71, 69, 70, 72, 68, 70, 71, 69, 70], "lower", 0.25),
        # The same on a higher-is-better metric.
        ("gain", [10, 11, 10, 10, 9, 10, 11, 10, 10, 10],
         [20, 21, 20, 19, 20, 20, 21, 20, 20, 20], "higher", 0.25),
        # 8/10 wins is not a gain, however large the difference.
        ("same", [100] * 10, [70] * 8 + [101, 101], "lower", 0.25),
        # 10/10 wins by less than the base's IQR is not a gain.
        ("same", [90, 95, 100, 105, 110, 90, 95, 100, 105, 110],
         [89, 94, 99, 104, 109, 89, 94, 99, 104, 109], "lower", 0.25),
        # Worse by more than the bound.
        ("worse", [100] * 10, [130] * 10, "lower", 0.25),
        ("worse", [100] * 10, [70] * 10, "higher", 0.25),
        # Worse, but within the bound.
        ("same", [100] * 10, [120] * 10, "lower", 0.25),
        # The base spreads wider than the bound: unresolved ...
        ("unresolved", [60, 80, 100, 120, 140, 60, 80, 100, 120, 140],
         [59, 81, 99, 121, 139, 61, 79, 101, 119, 141], "lower", 0.25),
        # ... also when the change wins every pair by less than the IQR ...
        ("unresolved", [50, 100, 150, 200], [49, 99, 149, 199], "lower",
         0.25),
        # ... unless every change run beats every base run: then a gain
        # larger than the IQR is a gain, and a smaller one is the same.
        ("gain", [60, 80, 100, 120, 140, 60, 80, 100, 120, 140],
         [10, 11, 12, 13, 14, 10, 11, 12, 13, 14], "lower", 0.25),
        ("same", [100, 101, 140, 141], [99, 99, 99, 99], "lower", 0.1),
    ]
    bad = 0
    for want, base, change, better, bound in cases:
        got = judge(base, change, better, bound)["verdict"]
        if got != want:
            bad += 1
            print("selftest: base %s change %s (%s is better) judged %s, "
                  "want %s" % (base, change, better, got, want))
    print("selftest %s" % ("FAILED" if bad else "passed"))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="parent revision")
    ap.add_argument("--change", help="changed revision")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--selftest", action="store_true",
                    help="check the verdicts on canned numbers")
    args = ap.parse_args()
    if args.selftest:
        sys.exit(selftest())
    if not (args.base and args.change and args.workload):
        ap.error("--base, --change and --workload are required")

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
        report(metrics, values)
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
