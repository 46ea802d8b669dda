#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds the
engine and the perfbench program from source into .bench_build (or
$CARGO_TARGET_DIR, when set); later runs only re-check the build. The last
line of standard output is the JSON result: with --trace 0 it holds the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
Checkpoint files and the Chrome trace (trace-<workload>-<seed>.json) go to
<build>/work.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("avl_churn", "sheet_recalc", "lang_avl", "session_zipf")
# Environment overrides the engine applies silently (Runtime and Interp
# constructors); a run with any of them set measures something else.
OVERRIDES = ("ALPHONSE_JOBS", "ALPHONSE_AUDIT", "ALPHONSE_NO_BYTECODE",
             "ALPHONSE_NO_STATIC_GRAPH")
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def cache_value(build, key):
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build(build):
    log_path = os.path.join(build, "perfbench-build.log")
    os.makedirs(build, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)
    build_type = cache_value(build, "CMAKE_BUILD_TYPE")
    if build_type not in ("RelWithDebInfo", "Release"):
        fail("refusing to report numbers: build type '%s'" % build_type, 2)
    return os.path.join(build, "perfbench"), build_type


def source_digest():
    """sha256 over the engine and benchmark sources: the benchmark may run
    in a copy without git metadata, so this stands in for the commit when
    no SHA is available."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def compiler(build):
    cxx = cache_value(build, "CMAKE_CXX_COMPILER")
    if not cxx:
        return "unknown"
    r = subprocess.run([cxx, "--version"], capture_output=True, text=True)
    return r.stdout.splitlines()[0] if r.returncode == 0 and r.stdout else cxx


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check the benchmark itself (determinism, oracles)")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    for var in OVERRIDES:
        if os.environ.get(var):
            fail("refusing to report numbers: %s is set" % var, 2)

    bdir = build_dir()
    binary, build_type = build(bdir)
    work = os.path.join(bdir, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--work-dir", work,
           "--program", os.path.join(HERE, "lang_avl.alf")]
    if args.selftest:
        sys.exit(subprocess.run(cmd + ["--selftest"], timeout=600).returncode)

    stamp = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": build_type,
        "compiler": compiler(bdir),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    cmd += ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--stamp", json.dumps(stamp)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(r.stdout)
        fail("no result line (exit code %d)" % r.returncode)
    body = "\n".join(lines[:-1])
    if body:
        print(body)
    got = set(result["metrics"])
    want = expected_metrics(args.trace)
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - got), sorted(got - want)))
    print(json.dumps(result), flush=True)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
