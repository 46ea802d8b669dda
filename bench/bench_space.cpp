//===- bench_space.cpp - Experiment E8 ------------------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Section 9.1 space analysis:
//  - nodes are O(M);
//  - edges are O(M) when referenced-argument sets are constant-sized
//    (the maintained-height tree);
//  - edges are O(M log M) for maintained searches in balanced trees
//    (tracked lookups);
//  - edges can reach O(M^2) when every procedure scans all data — and
//    then "every change will trigger the re-execution of O(M)
//    incrementally maintained procedures resulting in zero speedup".
//
// Each case reports measured node/edge counts as counters; the dense case
// also reports re-executions per change (≈ M, i.e. no speedup).
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "trees/AvlTree.h"

#include <benchmark/benchmark.h>

using namespace alphonse;
using namespace alphonse::bench;
using trees::AvlTree;
using trees::HeightTree;

// E8a: constant referenced-argument sets (height tree): edges = O(M).
static void BM_E8_ConstantRefSets(benchmark::State &State) {
  size_t M = static_cast<size_t>(State.range(0));
  Runtime RT;
  HeightTree Tree(RT);
  auto Nodes = buildPerfectTree(Tree, M);
  Tree.height(Nodes[0]);
  for (auto _ : State)
    benchmark::DoNotOptimize(Tree.height(Nodes[0]));
  State.counters["m"] = static_cast<double>(M);
  State.counters["graph_nodes"] =
      static_cast<double>(RT.graph().numLiveNodes());
  State.counters["graph_edges"] =
      static_cast<double>(RT.graph().numLiveEdges());
  State.counters["edges_per_m"] =
      static_cast<double>(RT.graph().numLiveEdges()) /
      static_cast<double>(M);
  // Slab footprint of the handle-based engine (graph.node_bytes /
  // graph.edge_bytes): reserved table bytes per live node/edge, the
  // figure the 24-byte packed Edge is accountable to.
  double NodeSlabPerNode = static_cast<double>(RT.graph().nodeSlabBytes()) /
                           static_cast<double>(RT.graph().numLiveNodes());
  State.counters["bytes_per_node"] = NodeSlabPerNode;
  // What a node really costs the graph: the node object's DepNode base
  // (owned by the typed layer) plus its share of the node slab.
  State.counters["node_footprint_bytes"] =
      static_cast<double>(sizeof(DepNode)) + NodeSlabPerNode;
  State.counters["bytes_per_edge"] =
      static_cast<double>(RT.graph().edgeSlabBytes()) /
      static_cast<double>(RT.graph().numLiveEdges());
}
BENCHMARK(BM_E8_ConstantRefSets)->Arg(1023)->Arg(4095)->Arg(16383);

// E8b: maintained searches: each of M lookups records an O(log M) path,
// so edges grow as M log M (the per-lookup edge count grows with log M).
static void BM_E8_SearchRefSets(benchmark::State &State) {
  int M = static_cast<int>(State.range(0));
  Runtime RT;
  AvlTree T(RT, /*UncheckedLookups=*/false);
  for (int K = 0; K < M; ++K)
    T.insert(K);
  T.rebalance();
  size_t EdgesBefore = RT.graph().numLiveEdges();
  for (int K = 0; K < M; ++K)
    T.lookup(K);
  size_t LookupEdges = RT.graph().numLiveEdges() - EdgesBefore;
  for (auto _ : State)
    benchmark::DoNotOptimize(T.lookup(M / 2));
  State.counters["m"] = static_cast<double>(M);
  State.counters["lookup_edges"] = static_cast<double>(LookupEdges);
  State.counters["edges_per_lookup"] =
      static_cast<double>(LookupEdges) / static_cast<double>(M);
}
BENCHMARK(BM_E8_SearchRefSets)->Arg(256)->Arg(1024)->Arg(4096);

// E8c: dense dependence — one maintained aggregate per element, each
// reading ALL M cells: edges O(M^2) and zero incremental speedup (every
// change re-runs O(M) procedures).
static void BM_E8_DenseRefSets(benchmark::State &State) {
  int M = static_cast<int>(State.range(0));
  Runtime RT;
  std::vector<std::unique_ptr<Cell<int>>> Data;
  for (int I = 0; I < M; ++I)
    Data.push_back(std::make_unique<Cell<int>>(RT, I));
  Maintained<int(int)> Aggregate(RT, [&](int Salt) {
    int Sum = Salt;
    for (auto &C : Data)
      Sum += C->get();
    return Sum;
  });
  for (int I = 0; I < M; ++I)
    Aggregate(I);
  int Tick = 0;
  RT.resetStats();
  for (auto _ : State) {
    Data[0]->set(++Tick);
    // Demand every aggregate again: all must re-run.
    long Sum = 0;
    for (int I = 0; I < M; ++I)
      Sum += Aggregate(I);
    benchmark::DoNotOptimize(Sum);
  }
  State.counters["m"] = static_cast<double>(M);
  State.counters["graph_edges"] =
      static_cast<double>(RT.graph().numLiveEdges());
  State.counters["edges_per_m"] =
      static_cast<double>(RT.graph().numLiveEdges()) /
      static_cast<double>(M);
  State.counters["reexec_per_change"] = benchmark::Counter(
      static_cast<double>(RT.stats().ProcExecutions) /
      static_cast<double>(State.iterations()));
}
BENCHMARK(BM_E8_DenseRefSets)->Arg(16)->Arg(64)->Arg(256);

ALPHONSE_BENCH_MAIN();
