//===- bench_transactions.cpp - Transaction overhead ----------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Cost of the transactional batch machinery (DESIGN.md "Transactions and
// recovery") on the E3 workload:
//
//  TXa: K changes + one demand, no transaction — the baseline.
//  TXb: the same batch inside beginBatch()/commit() — measures journaling
//       overhead on the mutation/execution path (undo entries per batch
//       are reported as a counter).
//  TXc: the same batch rolled back instead of committed, plus the first
//       demand of the root height after it — rollback restores program
//       state only and leaves the recomputation to that demand, so the
//       two together are what restoring the pre-batch state costs.
//
// The claim worth checking: the journal holds one entry per write and per
// created node, whatever the batch recomputes, so a commit costs about
// what the same edits cost outside a batch; and a rollback plus the
// demand after it is proportional to what the batch touched, not the
// graph.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

using namespace alphonse;
using namespace alphonse::bench;
using trees::HeightTree;

namespace {
constexpr size_t TreeNodes = 8191; // 13 levels, 4096 leaves.
constexpr size_t FirstLeaf = TreeNodes / 2;

/// The E3 half-batch: attach (or detach) K fresh subtrees, then demand the
/// root height once.
void runBatch(HeightTree &Tree, std::vector<HeightTree::Node *> &Nodes,
              std::vector<HeightTree::Node *> &Fresh, bool Attach) {
  for (size_t I = 0; I < Fresh.size(); ++I)
    Tree.setLeft(Nodes[FirstLeaf + I], Attach ? Fresh[I] : Tree.nil());
  benchmark::DoNotOptimize(Tree.height(Nodes[0]));
}
} // namespace

// TXa: untransacted baseline.
static void BM_TX_NoTransaction(benchmark::State &State) {
  size_t K = static_cast<size_t>(State.range(0));
  Runtime RT;
  HeightTree Tree(RT);
  auto Nodes = buildPerfectTree(Tree, TreeNodes);
  Tree.height(Nodes[0]);
  std::vector<HeightTree::Node *> Fresh;
  for (size_t I = 0; I < K; ++I)
    Fresh.push_back(Tree.makeNode());
  bool Attach = true;
  for (auto _ : State) {
    runBatch(Tree, Nodes, Fresh, Attach);
    Attach = !Attach;
  }
  State.counters["k"] = static_cast<double>(K);
}
BENCHMARK(BM_TX_NoTransaction)->Arg(1)->Arg(16)->Arg(256);

// TXb: the same work journaled and committed.
static void BM_TX_Commit(benchmark::State &State) {
  size_t K = static_cast<size_t>(State.range(0));
  Runtime RT;
  HeightTree Tree(RT);
  auto Nodes = buildPerfectTree(Tree, TreeNodes);
  Tree.height(Nodes[0]);
  std::vector<HeightTree::Node *> Fresh;
  for (size_t I = 0; I < K; ++I)
    Fresh.push_back(Tree.makeNode());
  bool Attach = true;
  RT.resetStats();
  for (auto _ : State) {
    RT.beginBatch();
    runBatch(Tree, Nodes, Fresh, Attach);
    bool Committed = RT.commitBatch();
    benchmark::DoNotOptimize(Committed);
    Attach = !Attach;
  }
  State.counters["k"] = static_cast<double>(K);
  State.counters["undo/batch"] = benchmark::Counter(
      static_cast<double>(RT.stats().TxnUndoEntries) /
      static_cast<double>(State.iterations()));
}
BENCHMARK(BM_TX_Commit)->Arg(1)->Arg(16)->Arg(256);

// TXc: the same work rolled back, then the root demanded again — every
// iteration restores the pre-batch state, so the workload stays
// attached-state-free across iterations.
static void BM_TX_Rollback(benchmark::State &State) {
  size_t K = static_cast<size_t>(State.range(0));
  Runtime RT;
  HeightTree Tree(RT);
  auto Nodes = buildPerfectTree(Tree, TreeNodes);
  Tree.height(Nodes[0]);
  std::vector<HeightTree::Node *> Fresh;
  for (size_t I = 0; I < K; ++I)
    Fresh.push_back(Tree.makeNode());
  RT.resetStats();
  for (auto _ : State) {
    RT.beginBatch();
    runBatch(Tree, Nodes, Fresh, /*Attach=*/true);
    RT.rollbackBatch();
    benchmark::DoNotOptimize(Tree.height(Nodes[0]));
  }
  State.counters["k"] = static_cast<double>(K);
  State.counters["undo/batch"] = benchmark::Counter(
      static_cast<double>(RT.stats().TxnUndoEntries) /
      static_cast<double>(State.iterations()));
}
BENCHMARK(BM_TX_Rollback)->Arg(1)->Arg(16)->Arg(256);

ALPHONSE_BENCH_MAIN();
