#!/usr/bin/env python3
"""Validate a BENCH_all.json aggregate against the BenchSupport schema.

The schema is what tools/run_benches.sh emits from the per-binary
documents written by ALPHONSE_BENCH_MAIN's --json flag:

  { "host_concurrency": int >= 1,
    "suites": [ { "name": str,
                  "peak_rss_kb": int >= 0,
                  "benchmarks": [ { "name": str,
                                    "iterations": int >= 1,
                                    "ns_per_op": number >= 0,
                                    "counters"?: {str: number} } ] } ],
    "space"?: { "benchmark": str,
                "bytes_per_edge": number > 0,
                "bytes_per_node": number > 0,
                "node_footprint_bytes": number > 0 } | null }

Exits 0 when the document conforms (and, if present, the space object's
bytes_per_edge and node_footprint_bytes stay under the
--max-bytes-per-edge and --max-node-footprint bounds), 1 otherwise.
Stdlib only — CI runs this right after the bench smoke sweep.
"""

import argparse
import json
import numbers
import sys


def fail(msg):
    print(f"validate_bench_json: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def check_benchmark(suite, bench):
    where = f"suite '{suite}'"
    require(isinstance(bench, dict), f"{where}: benchmark entry is not an object")
    name = bench.get("name")
    require(isinstance(name, str) and name, f"{where}: benchmark without a name")
    where = f"{where}, benchmark '{name}'"
    iters = bench.get("iterations")
    require(isinstance(iters, int) and iters >= 1, f"{where}: bad iterations {iters!r}")
    ns = bench.get("ns_per_op")
    require(
        isinstance(ns, numbers.Real) and not isinstance(ns, bool) and ns >= 0,
        f"{where}: bad ns_per_op {ns!r}",
    )
    counters = bench.get("counters", {})
    require(isinstance(counters, dict), f"{where}: counters is not an object")
    for key, value in counters.items():
        require(isinstance(key, str) and key, f"{where}: counter with empty name")
        require(
            isinstance(value, numbers.Real) and not isinstance(value, bool),
            f"{where}: counter '{key}' is not a number",
        )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("path", help="aggregate JSON from tools/run_benches.sh")
    ap.add_argument(
        "--max-bytes-per-edge",
        type=float,
        default=None,
        help="fail when space.bytes_per_edge exceeds this bound",
    )
    ap.add_argument(
        "--max-node-footprint",
        type=float,
        default=None,
        help="fail when space.node_footprint_bytes (sizeof(DepNode) plus "
        "node-slab bytes per live node) exceeds this bound",
    )
    ap.add_argument(
        "--require-suite",
        action="append",
        default=[],
        metavar="NAME",
        help="fail unless a suite with this name is present and non-empty "
        "(repeatable); catches a bench binary silently dropped from the sweep",
    )
    ap.add_argument(
        "--latency-suite",
        action="append",
        default=[],
        metavar="NAME",
        help="fail unless this suite has at least one benchmark reporting "
        "monotone p50_us <= p99_us <= p999_us latency counters (repeatable); "
        "used for serving-shaped suites like bench_sessions",
    )
    ap.add_argument(
        "--flat-gauge",
        action="append",
        default=[],
        metavar="NAME",
        help="fail unless this suite has at least one benchmark whose "
        "pool_high_water_start equals pool_high_water_end (repeatable); "
        "asserts the zero-allocation steady state of bench_static (E16)",
    )
    args = ap.parse_args()

    try:
        with open(args.path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {args.path}: {e}")

    require(isinstance(doc, dict), "top level is not an object")
    hc = doc.get("host_concurrency")
    require(isinstance(hc, int) and hc >= 1, f"bad host_concurrency {hc!r}")

    suites = doc.get("suites")
    require(isinstance(suites, list) and suites, "suites missing or empty")
    total = 0
    for suite in suites:
        require(isinstance(suite, dict), "suite entry is not an object")
        name = suite.get("name")
        require(isinstance(name, str) and name, "suite without a name")
        rss = suite.get("peak_rss_kb")
        require(
            isinstance(rss, int) and rss >= 0, f"suite '{name}': bad peak_rss_kb {rss!r}"
        )
        benches = suite.get("benchmarks")
        require(isinstance(benches, list), f"suite '{name}': benchmarks is not a list")
        for bench in benches:
            check_benchmark(name, bench)
        total += len(benches)
    require(total > 0, "no benchmark runs recorded in any suite")

    by_name = {s["name"]: s for s in suites}
    for wanted in args.require_suite:
        require(wanted in by_name, f"required suite '{wanted}' is missing")
        require(
            len(by_name[wanted]["benchmarks"]) > 0,
            f"required suite '{wanted}' recorded no benchmark runs",
        )

    quantile_keys = ("p50_us", "p99_us", "p999_us")
    for wanted in args.latency_suite:
        require(wanted in by_name, f"latency suite '{wanted}' is missing")
        found = 0
        for bench in by_name[wanted]["benchmarks"]:
            counters = bench.get("counters", {})
            if not all(k in counters for k in quantile_keys):
                continue
            found += 1
            where = f"latency suite '{wanted}', benchmark '{bench['name']}'"
            p50, p99, p999 = (counters[k] for k in quantile_keys)
            require(p50 >= 0, f"{where}: negative p50_us {p50!r}")
            require(
                p50 <= p99 <= p999,
                f"{where}: quantiles not monotone "
                f"(p50={p50!r}, p99={p99!r}, p999={p999!r})",
            )
        require(
            found > 0,
            f"latency suite '{wanted}' has no benchmark reporting "
            f"{'/'.join(quantile_keys)} counters",
        )

    gauge_keys = ("pool_high_water_start", "pool_high_water_end")
    for wanted in args.flat_gauge:
        require(wanted in by_name, f"flat-gauge suite '{wanted}' is missing")
        found = 0
        for bench in by_name[wanted]["benchmarks"]:
            counters = bench.get("counters", {})
            if not all(k in counters for k in gauge_keys):
                continue
            found += 1
            where = f"flat-gauge suite '{wanted}', benchmark '{bench['name']}'"
            start, end = (counters[k] for k in gauge_keys)
            require(start > 0, f"{where}: pool_high_water_start is {start!r}")
            require(
                start == end,
                f"{where}: pool high-water moved during steady state "
                f"(start={start!r}, end={end!r}) — slab growth after warm-up",
            )
        require(
            found > 0,
            f"flat-gauge suite '{wanted}' has no benchmark reporting "
            f"{'/'.join(gauge_keys)} counters",
        )

    space = doc.get("space")
    if space is not None:
        require(isinstance(space, dict), "space is not an object")
        for key in ("bytes_per_edge", "bytes_per_node", "node_footprint_bytes"):
            value = space.get(key)
            require(
                isinstance(value, numbers.Real)
                and not isinstance(value, bool)
                and value > 0,
                f"space.{key} is {value!r}",
            )
        if args.max_bytes_per_edge is not None:
            require(
                space["bytes_per_edge"] <= args.max_bytes_per_edge,
                f"space.bytes_per_edge {space['bytes_per_edge']} exceeds the "
                f"bound {args.max_bytes_per_edge}",
            )
        if args.max_node_footprint is not None:
            require(
                space["node_footprint_bytes"] <= args.max_node_footprint,
                f"space.node_footprint_bytes {space['node_footprint_bytes']} "
                f"exceeds the bound {args.max_node_footprint}",
            )

    print(
        f"ok: {total} runs across {len(suites)} suites"
        + (
            f", bytes/edge {space['bytes_per_edge']:.1f}"
            f", node footprint {space['node_footprint_bytes']:.1f} B"
            if space
            else ""
        )
    )


if __name__ == "__main__":
    main()
