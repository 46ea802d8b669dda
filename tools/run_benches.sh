#!/usr/bin/env bash
#===- run_benches.sh - Run every benchmark, aggregate JSON ---------------===//
#
# Part of the Alphonse reproduction (Hoover, PLDI 1992).
# SPDX-License-Identifier: MIT
#
#===----------------------------------------------------------------------===//
#
# Runs every bench_* binary with --json (the ALPHONSE_BENCH_MAIN harness)
# and aggregates the per-binary documents into one file, BENCH_all.json by
# default. The aggregate also hoists the graph-storage footprint counters
# (bytes_per_edge / bytes_per_node / node_footprint_bytes, reported by
# bench_space's BM_E8_ConstantRefSets at its largest size) into a
# top-level "space" object so storage regressions are one jq call away.
#
#   tools/run_benches.sh [--build-dir DIR] [--out FILE] [--only NAME]
#                        [--min-time SECS]
#
#   --only NAME   run a single binary (e.g. --only bench_interp) instead
#                 of the full sweep.
#
# Requires jq for aggregation.
#
#===----------------------------------------------------------------------===//

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$REPO_ROOT/build"
OUT="$REPO_ROOT/BENCH_all.json"
MIN_TIME="0.05"
ONLY=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out)       OUT="$2"; shift 2 ;;
    --min-time)  MIN_TIME="$2"; shift 2 ;;
    --only)      ONLY="$2"; shift 2 ;;
    --all)       shift ;; # Historical default; the full sweep is standard now.
    *) echo "error: unknown argument '$1'" >&2; exit 1 ;;
  esac
done

BENCH_DIR="$BUILD_DIR/bench"
if [[ ! -d "$BENCH_DIR" ]]; then
  echo "error: no bench directory at $BENCH_DIR (build first)" >&2
  exit 1
fi

# The sweep is defined by bench/CMakeLists.txt, not by what happens to be
# on disk: a registered binary that is missing means a broken build (or a
# bench silently dropped from the sweep) and must fail the run loudly
# rather than quietly shrink the aggregate. The character class includes
# digits: a target like bench_sessions2 must not be silently truncated
# out of the sweep.
mapfile -t EXPECTED < <(sed -n 's/^add_executable(\(bench_[a-z0-9_]*\).*/\1/p' \
  "$REPO_ROOT/bench/CMakeLists.txt" | sort)
if [[ ${#EXPECTED[@]} -eq 0 ]]; then
  echo "error: no bench targets found in bench/CMakeLists.txt" >&2
  exit 1
fi

# Discovery self-check: the parsed target set must exactly match the
# bench_* binaries a finished build leaves on disk. A mismatch either way
# means the sed pattern above rotted or the build is stale — both are
# silent-shrink hazards the sweep exists to prevent.
mapfile -t ONDISK < <(find "$BENCH_DIR" -maxdepth 1 -name 'bench_*' -type f \
  -perm -u+x -printf '%f\n' 2>/dev/null | sort)
if [[ "$(printf '%s\n' "${EXPECTED[@]}")" != "$(printf '%s\n' "${ONDISK[@]}")" ]]; then
  echo "error: bench discovery mismatch" >&2
  echo "  registered in bench/CMakeLists.txt: ${EXPECTED[*]}" >&2
  echo "  executables in $BENCH_DIR: ${ONDISK[*]:-none}" >&2
  echo "  (stale build, or the discovery regex no longer matches a" >&2
  echo "   registered target name — fix before trusting the sweep)" >&2
  exit 1
fi

if [[ -n "$ONLY" ]]; then
  BINARIES=("$BENCH_DIR/$ONLY")
else
  BINARIES=()
  for NAME in "${EXPECTED[@]}"; do
    BINARIES+=("$BENCH_DIR/$NAME")
  done
fi

MISSING=0
for BIN in "${BINARIES[@]}"; do
  if [[ ! -x "$BIN" ]]; then
    echo "error: bench binary missing or not executable: $BIN" >&2
    MISSING=1
  fi
done
if [[ $MISSING -ne 0 ]]; then
  echo "       (every target registered in bench/CMakeLists.txt must be" >&2
  echo "        built; rebuild, or remove the target from the sweep)" >&2
  exit 1
fi

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

DOCS=()
for BIN in "${BINARIES[@]}"; do
  NAME="$(basename "$BIN")"
  JSON="$TMP_DIR/$NAME.json"
  echo "== $NAME" >&2
  "$BIN" --json "$JSON" --benchmark_min_time="$MIN_TIME" >&2
  DOCS+=("$JSON")
done

if [[ ${#DOCS[@]} -eq 0 ]]; then
  echo "error: no bench binaries found" >&2
  exit 1
fi

# One aggregate document: per-binary results keyed by binary name, the
# host context hoisted to the top level (identical across runs), and the
# storage footprint pulled out of bench_space for quick inspection.
jq -s --arg names "$(printf '%s\n' "${DOCS[@]##*/}" | sed 's/\.json$//' | paste -sd, -)" '
  { host_concurrency: .[0].host_concurrency,
    suites: [ . as $docs
              | ($names | split(","))
              | to_entries[]
              | { name: .value,
                  peak_rss_kb: $docs[.key].peak_rss_kb,
                  benchmarks: $docs[.key].benchmarks } ] }
  | .space = ([ .suites[] | select(.name == "bench_space") | .benchmarks[]
                | select(.counters.bytes_per_edge != null) ]
              | if length == 0 then null else
                  (last
                   | { benchmark: .name,
                       bytes_per_edge: .counters.bytes_per_edge,
                       bytes_per_node: .counters.bytes_per_node,
                       node_footprint_bytes: .counters.node_footprint_bytes })
                end)
' "${DOCS[@]}" > "$OUT"

echo "wrote $OUT" >&2
