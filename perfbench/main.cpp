//===- main.cpp - perfbench: the end-to-end benchmark runner --------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload NAME --seed N --seconds S --trace 0|1
//           [--work-dir DIR] [--program FILE] [--stamp JSON]
// perfbench --selftest [--work-dir DIR] [--program FILE]
//
// --trace 0 runs the workload untraced and prints the end-to-end metrics;
// --trace 1 runs it untraced for half the time and traced for the other
// half, and prints the per-layer metrics (from the traced half's spans
// and Statistics deltas) plus the tracing overhead (the gap between the
// halves' throughput). The last stdout line is the JSON result.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "graph/DepNode.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <malloc.h>
#include <stdexcept>

using namespace perfbench;

namespace {

/// Environment overrides that silently change what is measured: the
/// Runtime constructor applies ALPHONSE_AUDIT/ALPHONSE_JOBS, the Interp
/// constructor ALPHONSE_NO_BYTECODE/ALPHONSE_NO_STATIC_GRAPH.
const char *const OverrideVars[] = {"ALPHONSE_JOBS", "ALPHONSE_AUDIT",
                                    "ALPHONSE_NO_BYTECODE",
                                    "ALPHONSE_NO_STATIC_GRAPH"};

/// Non-empty reason when this process must not report numbers.
std::string refusal() {
#if !defined(__OPTIMIZE__)
  return "unoptimised build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitized build";
#else
  for (const char *V : OverrideVars)
    if (const char *Val = std::getenv(V); Val && *Val)
      return std::string(V) + " is set";
  return "";
#endif
}

PhaseResult runPhase(const RunConfig &C, Tracer *T, double Seconds) {
  std::unique_ptr<Workload> W;
  if (C.Workload == "avl_churn")
    W = makeAvlChurn(C);
  else if (C.Workload == "sheet_recalc")
    W = makeSheetRecalc(C);
  else if (C.Workload == "lang_avl")
    W = makeLangAvl(C);
  else if (C.Workload == "session_zipf")
    W = makeSessionZipf(C);
  else
    throw std::runtime_error("unknown workload '" + C.Workload + "'");
  return runClosedLoop(*W, C, T, Seconds);
}

size_t latencySamples(const PhaseResult &R) {
  size_t N = 0;
  for (const Slice &S : R.Slices)
    N += S.Us.size();
  return N;
}

size_t smallestSlice(const PhaseResult &R) {
  size_t N = SIZE_MAX;
  for (const Slice &S : R.Slices)
    N = std::min(N, S.Us.size());
  return N;
}

/// The fast-slice value of per-slice figures \p V (see FastSliceQ).
double fastSlice(std::vector<double> V, bool HigherIsBetter = false) {
  if (HigherIsBetter) {
    for (double &X : V)
      X = -X;
    return -quantile(V, FastSliceQ);
  }
  return quantile(V, FastSliceQ);
}

/// Per-slice medians of the samples \p Of picks, over the slices that have
/// any.
template <typename Pick>
std::vector<double> sliceMedians(const PhaseResult &R, Pick Of) {
  std::vector<double> V;
  for (const Slice &S : R.Slices)
    if (!Of(S).empty())
      V.push_back(median(Of(S)));
  return V;
}

void endToEnd(PhaseResult &R, Metrics &M) {
  // Throughput is ops per second spent inside ops.
  std::vector<double> P50, P99, Rate;
  for (Slice &S : R.Slices) {
    P50.push_back(quantile(S.Us, 0.50));
    P99.push_back(quantile(S.Us, 0.99));
    Rate.push_back(
        Metrics::ratio(static_cast<double>(S.Us.size()), S.BusySeconds));
  }
  std::cout << "per-slice p50_us / p99_us / ops_per_s:";
  for (size_t I = 0; I < NumSlices; ++I)
    std::cout << "  " << P50[I] << " / " << P99[I] << " / " << Rate[I];
  std::cout << "\n";
  M.set("setup_s",
        fastSlice(sliceMedians(R, [](const Slice &S) { return S.SetupS; })),
        "s");
  M.set("op_p50_us", fastSlice(P50), "us");
  M.set("op_p99_us", fastSlice(P99), "us");
  M.set("ops_per_s", fastSlice(Rate, true), "1/s");
  M.set("peak_rss_mb", peakRssMb(), "MB");
  M.set("restore_s",
        fastSlice(sliceMedians(R, [](const Slice &S) { return S.RestoreS; })),
        "s");
}

/// The spans named \p Names, summed.
Tracer::Agg spans(const std::map<std::string, Tracer::Agg> &A,
                  std::initializer_list<const char *> Names) {
  Tracer::Agg Sum;
  for (const char *N : Names)
    if (auto It = A.find(N); It != A.end()) {
      Sum.Count += It->second.Count;
      Sum.TotalUs += It->second.TotalUs;
    }
  return Sum;
}

/// Mean span duration in microseconds times \p Scale.
double spanMean(const std::map<std::string, Tracer::Agg> &A,
                std::initializer_list<const char *> Names, double Scale) {
  Tracer::Agg Sum = spans(A, Names);
  return Metrics::ratio(Sum.TotalUs * Scale, static_cast<double>(Sum.Count));
}

void perLayer(const PhaseResult &Untraced, PhaseResult &R, const Tracer &T,
              Metrics &M) {
  using alphonse::DepNode;
  const Snap &D = R.Delta;
  auto ByName = T.byName();
  auto ByLayer = T.byLayer();
  double Ops = static_cast<double>(R.Attempted);
  auto Extra = [&](const char *Name) {
    auto It = R.Extras.find(Name);
    return It == R.Extras.end() ? 0.0 : It->second;
  };

  double UntracedRate = Metrics::ratio(
      static_cast<double>(Untraced.Attempted), Untraced.OpSeconds);
  double TracedRate = Metrics::ratio(Ops, R.OpSeconds);
  M.set("ops", Ops, "count");
  M.set("trace.untraced_ops_per_s", UntracedRate, "1/s");
  M.set("trace.traced_ops_per_s", TracedRate, "1/s");
  M.set("trace.overhead_frac",
        UntracedRate ? 1.0 - TracedRate / UntracedRate : 0, "ratio");
  M.set("trace.spans", static_cast<double>(T.size()), "count");
  for (const char *L : {"bench", "trees", "spreadsheet", "interp", "service"})
    M.set(std::string("self.") + L + "_us_per_op",
          Metrics::ratio(ByLayer[L].SelfUs, Ops), "us");

  M.set("trees.mutate_ns",
        spanMean(ByName, {"AvlTree::insert", "AvlTree::erase"}, 1e3), "ns");
  M.set("trees.demand_ns",
        spanMean(ByName, {"AvlTree::lookup", "AvlTree::contains"}, 1e3), "ns");

  double Execs = static_cast<double>(D.ProcExecutions);
  double Hits = static_cast<double>(D.CacheHits);
  M.set("core.proc_executions", Execs, "count");
  M.set("core.cache_hits", Hits, "count");
  M.set("core.execs_per_op", Metrics::ratio(Execs, Ops), "count");
  M.set("core.cache_hit_ratio", Metrics::ratio(Hits, Hits + Execs), "ratio");

  double DemandUs = spans(
      ByName, {"AvlTree::lookup", "AvlTree::contains", "Spreadsheet::recalc",
               "Spreadsheet::setAll", "Spreadsheet::value",
               "Interp::call(Contains)", "Interp::call(All)",
               "SessionManager::drainCycle"})
                        .TotalUs;
  M.set("depgraph.demand_ms", DemandUs * 1e-3, "ms");
  M.set("depgraph.ns_per_exec", Metrics::ratio(DemandUs * 1e3, Execs), "ns");
  M.set("depgraph.evalsteps_per_op",
        Metrics::ratio(static_cast<double>(D.EvalSteps), Ops), "count");
  M.set("depgraph.quiescence_cutoffs",
        static_cast<double>(D.QuiescenceCutoffs), "count");
  M.set("depgraph.cutoff_ratio",
        Metrics::ratio(static_cast<double>(D.QuiescenceCutoffs), Execs),
        "ratio");
  M.set("depgraph.pump_us", spanMean(ByName, {"Spreadsheet::recalc"}, 1),
        "us");
  M.set("depgraph.edges_linked", static_cast<double>(D.EdgesCreated),
        "count");
  M.set("depgraph.edges_linked_per_op",
        Metrics::ratio(static_cast<double>(D.EdgesCreated), Ops), "count");
  M.set("depgraph.edges_unlinked_per_op",
        Metrics::ratio(static_cast<double>(D.EdgesRemoved), Ops), "count");
  M.set("depgraph.edges_deduped", static_cast<double>(D.EdgesDeduped),
        "count");
  M.set("depgraph.dedup_ratio",
        Metrics::ratio(static_cast<double>(D.EdgesDeduped),
                       static_cast<double>(D.EdgesCreated + D.EdgesDeduped)),
        "ratio");

  M.set("policy.pending_peak", Extra("policy.pending_peak"), "count");
  M.set("policy.unions_per_op",
        Metrics::ratio(static_cast<double>(D.PartitionUnions), Ops), "count");
  M.set("policy.batches", static_cast<double>(D.TxnBegun), "count");
  M.set("policy.undo_entries_per_batch",
        Metrics::ratio(static_cast<double>(D.TxnUndoEntries),
                       static_cast<double>(D.TxnBegun)),
        "count");
  M.set("policy.txn_commit_us", Extra("policy.txn_commit_us"), "us");
  M.set("policy.txn_rollback_us", Extra("policy.txn_rollback_us"), "us");

  double Nodes = static_cast<double>(D.LiveNodes);
  M.set("store.live_nodes", Nodes, "count");
  M.set("store.live_edges", static_cast<double>(D.LiveEdges), "count");
  M.set("store.node_slab_bytes_per_node",
        Metrics::ratio(static_cast<double>(D.GraphNodeBytes), Nodes), "B");
  M.set("store.bytes_per_node",
        sizeof(DepNode) +
            Metrics::ratio(static_cast<double>(D.GraphNodeBytes), Nodes),
        "B");
  M.set("store.bytes_per_edge",
        Metrics::ratio(static_cast<double>(D.GraphEdgeBytes),
                       static_cast<double>(D.LiveEdges)),
        "B");
  M.set("store.high_water_growth", static_cast<double>(D.PoolHighWater), "B");
  M.set("store.edge_reuse", static_cast<double>(D.EdgeReuse), "count");
  M.set("store.edge_reuse_ratio",
        Metrics::ratio(static_cast<double>(D.EdgeReuse),
                       static_cast<double>(D.EdgesCreated)),
        "ratio");

  double Waves = static_cast<double>(
      spans(ByName, {"Spreadsheet::recalc", "Spreadsheet::setAll"}).Count);
  double Drained = static_cast<double>(D.PropPartitionsDrained);
  M.set("sched.partitions_drained", Drained, "count");
  M.set("sched.conflicts", static_cast<double>(D.PropConflicts), "count");
  M.set("sched.partitions_per_wave", Metrics::ratio(Drained, Waves), "count");
  M.set("sched.conflict_ratio",
        Metrics::ratio(static_cast<double>(D.PropConflicts), Drained),
        "ratio");

  M.set("spreadsheet.literal_ns",
        spanMean(ByName, {"Spreadsheet::setLiteral"}, 1e3), "ns");
  M.set("spreadsheet.formula_us",
        spanMean(ByName, {"Spreadsheet::setFormula"}, 1), "us");
  M.set("spreadsheet.read_ns", spanMean(ByName, {"Spreadsheet::value"}, 1e3),
        "ns");

  M.set("lang.parse_ms", spanMean(ByName, {"lang::parseModule"}, 1e-3), "ms");
  M.set("lang.sema_ms", spanMean(ByName, {"lang::analyze"}, 1e-3), "ms");
  M.set("transform.ms", spanMean(ByName, {"transform::transform"}, 1e-3),
        "ms");
  M.set("interp.construct_ms", spanMean(ByName, {"Interp::Interp"}, 1e-3),
        "ms");
  M.set("interp.mutate_us",
        spanMean(ByName,
                 {"Interp::call(Insert)", "Interp::call(Erase)",
                  "Interp::call(Poke)"},
                 1),
        "us");
  M.set("interp.demand_us",
        spanMean(ByName, {"Interp::call(Contains)", "Interp::call(All)"}, 1),
        "us");
  double Static = static_cast<double>(D.StaticCalls);
  M.set("interp.static_calls", Static, "count");
  M.set("interp.static_call_ratio", Metrics::ratio(Static, Execs + Hits),
        "ratio");

  // Every durable step ends in an fsync, whose latency is the host disk's:
  // across runs of the same code it spread by up to 30% of its median, so
  // it is reported here rather than bounded as an end-to-end metric.
  M.set("ckpt.durable_p50_ms",
        fastSlice(sliceMedians(R, [](const Slice &S) { return S.DurableMs; })),
        "ms");
  M.set("ckpt.delta_bytes", Extra("ckpt.delta_bytes"), "B");
  M.set("ckpt.restored_nodes", Extra("ckpt.restored_nodes"), "count");

  M.set("service.mutate_ns",
        spanMean(ByName, {"SessionManager::mutate"}, 1e3), "ns");
  M.set("service.drain_cycle_us",
        spanMean(ByName, {"SessionManager::drainCycle"}, 1), "us");
  M.set("service.sessions_per_cycle", Extra("service.sessions_per_cycle"),
        "count");
  M.set("service.queue_peak", Extra("service.queue_peak"), "count");
  M.set("service.cycles", Extra("service.cycles"), "count");
}

void printResult(bool Correct, const PhaseResult &R, const Metrics &M) {
  std::cout << "{\"correct\": " << (Correct ? "true" : "false")
            << ", \"attempted\": " << R.Attempted
            << ", \"failed\": " << R.Failed << ", \"metrics\": " << M.json()
            << "}" << std::endl;
}

/// One run as the benchmark contract defines it. \returns the exit code.
int run(const RunConfig &C, const std::string &Stamp) {
  Metrics M;
  PhaseResult R;
  std::unique_ptr<Tracer> T;
  if (!C.Trace) {
    R = runPhase(C, nullptr, C.Seconds);
    endToEnd(R, M);
  } else {
    PhaseResult Untraced = runPhase(C, nullptr, C.Seconds / 2);
    T = std::make_unique<Tracer>();
    R = runPhase(C, T.get(), C.Seconds / 2);
    perLayer(Untraced, R, *T, M);
    R.Attempted += Untraced.Attempted;
    R.Failed += Untraced.Failed;
    R.Problems.insert(R.Problems.end(), Untraced.Problems.begin(),
                      Untraced.Problems.end());
    std::string Path = C.WorkDir + "/trace-" + C.Workload + "-" +
                       std::to_string(C.Seed) + ".json";
    if (!T->writeChrome(Path, Stamp))
      R.Problems.push_back("cannot write " + Path);
    else
      std::cout << "trace: " << T->size() << " spans -> " << Path << "\n";
  }

  std::cout << "stamp: " << Stamp << "\n"
            << "workload " << C.Workload << ", seed " << C.Seed << ", "
            << (C.Trace ? "traced" : "untraced") << ": " << R.Attempted
            << " ops (" << latencySamples(R) << " latency samples in "
            << NumSlices << " slices; the smallest slice has "
            << smallestSlice(R) / 100 << " beyond its p99), failed_frac "
            << Metrics::ratio(static_cast<double>(R.Failed),
                              static_cast<double>(R.Attempted))
            << "\n";
  auto List = [&](const char *Name, auto Of) {
    std::cout << Name << " samples:";
    for (const Slice &S : R.Slices)
      for (double X : Of(S))
        std::cout << " " << X;
    std::cout << "\n";
  };
  List("setup_s", [](const Slice &S) { return S.SetupS; });
  List("restore_s", [](const Slice &S) { return S.RestoreS; });
  M.print(std::cout);
  for (const std::string &P : R.Problems)
    std::cout << "PROBLEM: " << P << "\n";
  bool Enough = C.Trace || smallestSlice(R) >= 1000;
  if (!Enough)
    std::cout << "PROBLEM: a slice has fewer than 1000 latency samples; its "
                 "p99 is not resolved\n";
  bool Correct = R.Failed == 0 && R.Problems.empty() && Enough;
  printResult(Correct, R, M);
  return Correct ? 0 : 1;
}

/// The benchmark's self-test: determinism of the op stream and of the
/// per-layer counts on the serial workloads (sheet_recalc drains on
/// workers), seed sensitivity, and an oracle that flags answers corrupted
/// in the checking code.
int selftest(RunConfig Base) {
  int Failures = 0;
  auto Expect = [&](bool Ok, const std::string &What) {
    std::cout << (Ok ? "PASS " : "FAIL ") << What << "\n";
    Failures += !Ok;
  };
  auto Once = [&](const char *W, uint64_t Seed, uint64_t Ops,
                  uint64_t Corrupt) {
    RunConfig C = Base;
    C.Workload = W;
    C.Seed = Seed;
    C.FixedOps = Ops;
    C.CorruptEvery = Corrupt;
    return runPhase(C, nullptr, 0);
  };
  for (const char *W : {"avl_churn", "lang_avl", "session_zipf"}) {
    uint64_t Ops = std::string(W) == "lang_avl"       ? 2500
                   : std::string(W) == "session_zipf" ? 300
                                                      : 3000;
    PhaseResult A = Once(W, 7, Ops, 0), B = Once(W, 7, Ops, 0),
                Other = Once(W, 8, Ops, 0);
    Expect(A.Failed == 0 && A.Problems.empty() && B.Failed == 0,
           std::string(W) + ": clean run has no failures");
    Expect(A.Fingerprint == B.Fingerprint,
           std::string(W) + ": same seed gives the same op stream");
    Expect(A.Fingerprint != Other.Fingerprint,
           std::string(W) + ": another seed gives another op stream");
    const Snap &X = A.Delta, &Y = B.Delta;
    Expect(X.ProcExecutions == Y.ProcExecutions && X.CacheHits == Y.CacheHits &&
               X.EvalSteps == Y.EvalSteps && X.EdgesCreated == Y.EdgesCreated &&
               X.EdgesRemoved == Y.EdgesRemoved &&
               X.EdgesDeduped == Y.EdgesDeduped &&
               X.QuiescenceCutoffs == Y.QuiescenceCutoffs &&
               X.LiveNodes == Y.LiveNodes && X.ProcExecutions > 0,
           std::string(W) + ": same seed gives the same per-layer counts");
  }
  for (const char *W :
       {"avl_churn", "sheet_recalc", "lang_avl", "session_zipf"}) {
    PhaseResult Clean = Once(W, 3, 400, 0), Bad = Once(W, 3, 400, 50);
    Expect(Clean.Failed == 0, std::string(W) + ": oracle accepts true answers");
    Expect(Bad.Failed > 0,
           std::string(W) + ": oracle flags corrupted answers (" +
               std::to_string(Bad.Failed) + " flagged)");
  }
  std::cout << (Failures ? "selftest FAILED" : "selftest passed") << "\n";
  return Failures ? 1 : 0;
}

[[noreturn]] void usage(const std::string &Why) {
  std::cerr << "perfbench: " << Why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--program FILE] [--stamp JSON]\n"
               "       perfbench --selftest [--work-dir DIR] [--program FILE]\n";
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  // Keep freed memory mapped: repeated set-ups and restores then measure
  // the engine's work rather than page faults, whose cost on a virtualized
  // host swings from run to run.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  RunConfig C;
  C.ProgramPath = PERFBENCH_SOURCE_DIR "/lang_avl.alf";
  std::string Stamp = "{}";
  bool SelfTest = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage("missing value for " + A);
      return Argv[++I];
    };
    try {
      if (A == "--workload")
        C.Workload = Next();
      else if (A == "--seed")
        C.Seed = std::stoull(Next());
      else if (A == "--seconds")
        C.Seconds = std::stod(Next());
      else if (A == "--trace")
        C.Trace = Next() != "0";
      else if (A == "--work-dir")
        C.WorkDir = Next();
      else if (A == "--program")
        C.ProgramPath = Next();
      else if (A == "--stamp")
        Stamp = Next();
      else if (A == "--selftest")
        SelfTest = true;
      else
        usage("unknown argument " + A);
    } catch (const std::logic_error &) {
      usage("bad value for " + A);
    }
  }
  if (std::string Why = refusal(); !Why.empty()) {
    std::cerr << "perfbench: refusing to report numbers: " << Why << "\n";
    return 2;
  }
  try {
    if (SelfTest)
      return selftest(C);
    if (C.Workload.empty() || C.Seconds <= 0)
      usage("--workload and a positive --seconds are required");
    return run(C, Stamp);
  } catch (const std::exception &E) {
    std::cerr << "perfbench: " << E.what() << "\n";
    return 1;
  }
}
