//===- DepGraphTest.cpp - Dependency graph unit tests ---------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the graph layer directly with stub nodes: propagation per
/// Section 4.5, quiescence cutoffs, partitioning (Section 6.3), edge
/// dedup, and node-destruction invalidation.
///
//===----------------------------------------------------------------------===//

#include "graph/DepGraph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

namespace alphonse {
namespace {

/// Storage stub whose "live vs snapshot" answer is scripted.
struct FakeStorage final : DepNode {
  explicit FakeStorage(DepGraph &G) : DepNode(G, NodeKind::Storage) {}
  bool refreshStorage() override {
    ++Refreshes;
    return NextChanged;
  }
  bool NextChanged = true;
  int Refreshes = 0;
};

/// Procedure stub that runs a minimal execution protocol when the
/// evaluator re-executes it (eager mode).
struct FakeProc final : DepNode {
  explicit FakeProc(DepGraph &G, EvalStrategy S = EvalStrategy::Demand)
      : DepNode(G, NodeKind::Procedure, S) {}
  bool reexecute() override {
    ++Reexecutions;
    graph().beginExecution(*this);
    graph().endExecution(*this);
    return NextChanged;
  }
  bool NextChanged = true;
  int Reexecutions = 0;
};

class DepGraphTest : public ::testing::Test {
protected:
  Statistics Stats;
};

/// Simulates "Proc executed and read Src": records the dependency inside a
/// proper execution window.
static void recordRead(DepGraph &G, DepNode &Proc, DepNode &Src) {
  G.beginExecution(Proc);
  G.addDependency(Proc, Src);
  G.endExecution(Proc);
}

/// Runs one execution of \p Proc that reads \p Reads in order.
static void runReading(DepGraph &G, DepNode &Proc,
                       const std::vector<DepNode *> &Reads) {
  ExecutionScope Exec(G, Proc);
  for (DepNode *R : Reads)
    G.addDependency(Proc, *R);
}

/// \p Proc's predecessors in list order (newest first).
static std::vector<const DepNode *> predsOf(const DepNode &Proc) {
  std::vector<const DepNode *> Out;
  Proc.forEachPredecessor([&](const DepNode &N) { Out.push_back(&N); });
  return Out;
}

/// Every live edge into \p Proc, keyed by its source, found by probing the
/// edge table's handles (the tests' only view of EdgeIds).
static std::map<uint32_t, EdgeId> edgesInto(const DepGraph &G,
                                            const DepNode &Proc) {
  std::map<uint32_t, EdgeId> Out;
  for (uint32_t Index = 0; Index < 256; ++Index)
    for (uint32_t Gen = EdgeId::FirstGen; Gen <= EdgeId::MaxGen; ++Gen) {
      EdgeId Id = EdgeId::make(Index, Gen);
      if (G.isLiveEdge(Id) && G.edge(Id).Sink == Proc.id())
        Out[G.edge(Id).Source.bits()] = Id;
    }
  return Out;
}

TEST_F(DepGraphTest, StorageChangeInvalidatesDemandDependent) {
  DepGraph G(Stats);
  {
    FakeStorage S(G);
    FakeProc P(G);
    recordRead(G, P, S);
    EXPECT_TRUE(P.isConsistent());
    G.markInconsistent(S);
    EXPECT_EQ(G.numPending(), 1u);
    G.evaluateAll();
    EXPECT_FALSE(P.isConsistent());
    EXPECT_EQ(S.Refreshes, 1);
    EXPECT_EQ(G.numPending(), 0u);
  }
}

TEST_F(DepGraphTest, QuiescentStorageDoesNotPropagate) {
  DepGraph G(Stats);
  {
    FakeStorage S(G);
    FakeProc P(G);
    recordRead(G, P, S);
    S.NextChanged = false; // Live value equals snapshot at refresh time.
    G.markInconsistent(S);
    G.evaluateAll();
    EXPECT_TRUE(P.isConsistent());
    EXPECT_EQ(Stats.QuiescenceCutoffs, 1u);
  }
}

TEST_F(DepGraphTest, VariableCutoffAblationAlwaysPropagates) {
  DepGraph::Config Cfg;
  Cfg.VariableCutoff = false;
  DepGraph G(Stats, Cfg);
  {
    FakeStorage S(G);
    FakeProc P(G);
    recordRead(G, P, S);
    S.NextChanged = false;
    G.markInconsistent(S);
    G.evaluateAll();
    EXPECT_FALSE(P.isConsistent()); // No cutoff: invalidated anyway.
  }
}

TEST_F(DepGraphTest, InvalidationIsTransitive) {
  DepGraph G(Stats);
  {
    FakeStorage S(G);
    FakeProc P1(G), P2(G), P3(G);
    recordRead(G, P1, S);
    recordRead(G, P2, P1);
    recordRead(G, P3, P2);
    G.markInconsistent(S);
    G.evaluateAll();
    EXPECT_FALSE(P1.isConsistent());
    EXPECT_FALSE(P2.isConsistent());
    EXPECT_FALSE(P3.isConsistent());
  }
}

TEST_F(DepGraphTest, EagerNodeReexecutesDuringEvaluation) {
  DepGraph G(Stats);
  {
    FakeStorage S(G);
    FakeProc P(G, EvalStrategy::Eager);
    recordRead(G, P, S);
    G.markInconsistent(S);
    G.evaluateAll();
    EXPECT_EQ(P.Reexecutions, 1);
    EXPECT_TRUE(P.isConsistent());
  }
}

TEST_F(DepGraphTest, EagerCutoffStopsPropagation) {
  DepGraph G(Stats);
  {
    FakeStorage S(G);
    FakeProc Mid(G, EvalStrategy::Eager);
    FakeProc Top(G, EvalStrategy::Eager);
    recordRead(G, Mid, S);
    recordRead(G, Top, Mid);
    Mid.NextChanged = false; // Mid recomputes to the same value.
    G.markInconsistent(S);
    G.evaluateAll();
    EXPECT_EQ(Mid.Reexecutions, 1);
    EXPECT_EQ(Top.Reexecutions, 0); // Quiescence: change never reached Top.
    EXPECT_TRUE(Top.isConsistent());
  }
}

TEST_F(DepGraphTest, LevelsOrderEagerReexecution) {
  DepGraph G(Stats);
  {
    FakeStorage S(G);
    FakeProc Low(G, EvalStrategy::Eager);
    FakeProc High(G, EvalStrategy::Eager);
    // High depends on both S and Low; Low depends on S. Processing in
    // level order re-executes Low before High.
    recordRead(G, Low, S);
    G.beginExecution(High);
    G.addDependency(High, S);
    G.addDependency(High, Low);
    G.endExecution(High);
    EXPECT_GT(High.level(), Low.level());
    G.markInconsistent(S);
    G.evaluateAll();
    EXPECT_EQ(Low.Reexecutions, 1);
    EXPECT_EQ(High.Reexecutions, 1);
  }
}

TEST_F(DepGraphTest, RemovePredEdgesDetachesBothSides) {
  DepGraph G(Stats);
  {
    FakeStorage S1(G), S2(G);
    FakeProc P(G);
    G.beginExecution(P);
    G.addDependency(P, S1);
    G.addDependency(P, S2);
    G.endExecution(P);
    EXPECT_EQ(P.numPredecessors(), 2u);
    EXPECT_EQ(S1.numSuccessors(), 1u);
    G.removePredEdges(P);
    EXPECT_EQ(P.numPredecessors(), 0u);
    EXPECT_EQ(S1.numSuccessors(), 0u);
    EXPECT_EQ(S2.numSuccessors(), 0u);
    EXPECT_EQ(G.numLiveEdges(), 0u);
  }
}

TEST_F(DepGraphTest, DuplicateReadsWithinOneExecutionMakeOneEdge) {
  DepGraph G(Stats);
  {
    FakeStorage S(G);
    FakeProc P(G);
    G.beginExecution(P);
    G.addDependency(P, S);
    G.addDependency(P, S);
    G.addDependency(P, S);
    G.endExecution(P);
    EXPECT_EQ(P.numPredecessors(), 1u);
    EXPECT_EQ(Stats.EdgesDeduped, 2u);
  }
}

TEST_F(DepGraphTest, DedupResetsAcrossExecutions) {
  DepGraph G(Stats);
  {
    FakeStorage S(G);
    FakeProc P(G);
    recordRead(G, P, S);
    G.removePredEdges(P);
    recordRead(G, P, S); // New execution: a fresh edge must be created.
    EXPECT_EQ(P.numPredecessors(), 1u);
    EXPECT_EQ(Stats.EdgesCreated, 2u);
  }
}

TEST_F(DepGraphTest, RereadKeepsEveryEdge) {
  DepGraph G(Stats);
  FakeStorage A(G), B(G), C(G);
  FakeProc P(G);
  runReading(G, P, {&A, &B, &C});
  std::map<uint32_t, EdgeId> Before = edgesInto(G, P);
  ASSERT_EQ(Before.size(), 3u);
  uint64_t Created = Stats.EdgesCreated, Removed = Stats.EdgesRemoved;

  // The same reads in the same order: no edge is created, removed or
  // moved, and each keeps its handle.
  runReading(G, P, {&A, &B, &C});
  EXPECT_EQ(Stats.EdgesCreated, Created);
  EXPECT_EQ(Stats.EdgesRemoved, Removed);
  EXPECT_EQ(Stats.EdgesKept, 3u);
  EXPECT_EQ(edgesInto(G, P), Before);
  EXPECT_EQ(predsOf(P), (std::vector<const DepNode *>{&C, &B, &A}));
  EXPECT_TRUE(G.verify().empty());
}

/// One re-execution's old and new read sets, as indices into five sources.
struct ReadSetCase {
  const char *Name;
  std::vector<int> Old, New;
};

static const ReadSetCase ReadSetCases[] = {
    {"same", {0, 1, 2}, {0, 1, 2}},
    {"subset", {0, 1, 2, 3}, {0, 2}},
    {"superset", {1, 3}, {0, 1, 2, 3, 4}},
    {"reordered", {0, 1, 2}, {2, 0, 1}},
    {"reversed", {0, 1, 2, 3}, {3, 2, 1, 0}},
    {"repeated", {0, 1}, {1, 0, 1, 1, 2, 0}},
    {"disjoint", {0, 1}, {2, 3, 4}},
    {"emptied", {0, 1, 2}, {}},
    {"first run", {}, {4, 0}},
};

/// The predecessor list a run reading \p Reads must leave: each source
/// once, newest (last first read) first.
static std::vector<const DepNode *>
expectedPreds(const std::vector<int> &Reads,
              const std::vector<std::unique_ptr<FakeStorage>> &S) {
  std::vector<const DepNode *> Out;
  for (int I : Reads)
    if (std::find(Out.begin(), Out.end(), S[I].get()) == Out.end())
      Out.push_back(S[I].get());
  std::reverse(Out.begin(), Out.end());
  return Out;
}

static std::vector<DepNode *>
nodes(const std::vector<int> &Reads,
      const std::vector<std::unique_ptr<FakeStorage>> &S) {
  std::vector<DepNode *> Out;
  for (int I : Reads)
    Out.push_back(S[I].get());
  return Out;
}

TEST_F(DepGraphTest, ReexecutionEndsWithExactlyTheNewReadSet) {
  for (const ReadSetCase &Case : ReadSetCases) {
    SCOPED_TRACE(Case.Name);
    DepGraph G(Stats);
    std::vector<std::unique_ptr<FakeStorage>> S;
    for (int I = 0; I < 5; ++I)
      S.push_back(std::make_unique<FakeStorage>(G));
    FakeProc P(G);
    runReading(G, P, nodes(Case.Old, S));
    runReading(G, P, nodes(Case.New, S));

    std::vector<const DepNode *> Want = expectedPreds(Case.New, S);
    EXPECT_EQ(predsOf(P), Want);
    EXPECT_EQ(P.numPredecessors(), Want.size());
    EXPECT_EQ(G.numLiveEdges(), Want.size());
    for (const auto &Src : S)
      EXPECT_EQ(Src->numSuccessors(),
                std::count(Want.begin(), Want.end(), Src.get()));
    EXPECT_TRUE(G.verify().empty());
  }
}

TEST_F(DepGraphTest, RollbackRestoresThePredecessorListInOrder) {
  for (const ReadSetCase &Case : ReadSetCases) {
    SCOPED_TRACE(Case.Name);
    DepGraph G(Stats);
    std::vector<std::unique_ptr<FakeStorage>> S;
    for (int I = 0; I < 5; ++I)
      S.push_back(std::make_unique<FakeStorage>(G));
    FakeProc P(G);
    runReading(G, P, nodes(Case.Old, S));
    std::vector<const DepNode *> Before = predsOf(P);

    // Re-execute with the new read set, then once more with yet another
    // order, so that edges added by the first run are trimmed and
    // relinked by the second's undo before their own undo runs.
    G.beginBatch();
    runReading(G, P, nodes(Case.New, S));
    runReading(G, P, {S[3].get(), S[0].get(), S[4].get()});
    G.rollbackBatch();

    EXPECT_EQ(predsOf(P), Before);
    EXPECT_EQ(G.numLiveEdges(), Before.size());
    for (const auto &Src : S)
      EXPECT_EQ(Src->numSuccessors(),
                std::count(Before.begin(), Before.end(), Src.get()));
    EXPECT_TRUE(G.verify().empty());
  }
}

TEST_F(DepGraphTest, ThrowingRunKeepsWhatItReadAndTrimsTheRest) {
  DepGraph G(Stats);
  FakeStorage A(G), B(G), C(G);
  FakeProc P(G);
  runReading(G, P, {&A, &B, &C});
  EdgeId KeptA = edgesInto(G, P).at(A.id().bits());
  try {
    ExecutionScope Exec(G, P);
    G.addDependency(P, A);
    throw std::runtime_error("body failed");
  } catch (const std::runtime_error &) {
  }
  EXPECT_EQ(predsOf(P), (std::vector<const DepNode *>{&A}));
  EXPECT_EQ(edgesInto(G, P).at(A.id().bits()), KeptA);
  EXPECT_EQ(B.numSuccessors(), 0u);
  EXPECT_EQ(C.numSuccessors(), 0u);
  EXPECT_TRUE(G.verify().empty());
}

TEST_F(DepGraphTest, SourceDiesBeforeTheRunReadsItAgain) {
  DepGraph G(Stats);
  auto A = std::make_unique<FakeStorage>(G);
  auto B = std::make_unique<FakeStorage>(G);
  FakeStorage C(G), D(G);
  FakeProc P(G);
  runReading(G, P, {A.get(), B.get(), &C, &D}); // Oldest edge: A's.

  G.beginExecution(P);
  // B's edge is unread but not at the cursor; A's is at the cursor, which
  // moves to the next unread edge, C's. Neither death reaches the running
  // P, which has not read either value.
  B.reset();
  A.reset();
  EXPECT_TRUE(G.verify().empty());
  EXPECT_EQ(G.numPending(), 0u);
  uint64_t Created = Stats.EdgesCreated;
  G.addDependency(P, C);
  EXPECT_EQ(Stats.EdgesCreated, Created) << "C's edge was not kept";
  G.endExecution(P);
  EXPECT_TRUE(P.isConsistent());
  EXPECT_EQ(predsOf(P), (std::vector<const DepNode *>{&C}));
  EXPECT_EQ(D.numSuccessors(), 0u);

  // A source the run has read does invalidate it when it dies.
  {
    FakeStorage E(G);
    G.beginExecution(P);
    G.addDependency(P, C);
    G.addDependency(P, E);
    G.endExecution(P);
    G.beginExecution(P);
    G.addDependency(P, C);
    G.addDependency(P, E);
  }
  G.endExecution(P);
  G.evaluateAll();
  EXPECT_FALSE(P.isConsistent());
  EXPECT_TRUE(G.verify().empty());
}

TEST_F(DepGraphTest, ChangeThroughAnUnreadEdgeSkipsTheRunningSink) {
  DepGraph G(Stats);
  FakeStorage S1(G), S2(G);
  FakeProc P(G);
  runReading(G, P, {&S1, &S2});

  G.beginExecution(P);
  G.addDependency(P, S1);
  // S2 changes mid-run, before P reads it again: P will read the new
  // value, so invalidating it would only re-run it for nothing.
  G.markInconsistent(S2);
  G.evaluateAll();
  EXPECT_EQ(S2.Refreshes, 1);
  EXPECT_TRUE(P.isConsistent());
  G.addDependency(P, S2);
  G.endExecution(P);
  EXPECT_TRUE(P.isConsistent());
  EXPECT_EQ(G.numPending(), 0u);

  // After the read, the same change does reach it.
  G.beginExecution(P);
  G.addDependency(P, S1);
  G.addDependency(P, S2);
  G.markInconsistent(S2);
  G.evaluateAll();
  G.endExecution(P);
  EXPECT_FALSE(P.isConsistent());
  EXPECT_TRUE(G.verify().empty());
}

TEST_F(DepGraphTest, VerifyExemptsOnlyTheUnreadPrefixFromLevelOrder) {
  DepGraph G(Stats);
  FakeStorage S(G);
  FakeProc Q1(G), Q2(G), P(G);
  std::string N1 = "q1", N2 = "q2", NP = "p";
  Q1.setName(N1);
  Q2.setName(N2);
  P.setName(NP);
  runReading(G, Q1, {&S});
  runReading(G, Q2, {&Q1});
  runReading(G, P, {&Q1, &Q2});
  ASSERT_EQ(P.level(), 3u);

  // A running P restarts at level 0, below both sources it has not read
  // again.
  G.beginExecution(P);
  EXPECT_TRUE(G.verify().empty());
  G.addDependency(P, Q1);
  EXPECT_TRUE(G.verify().empty());

  // Lift q1 above p: the edge p has read again is checked, the unread one
  // from q2 (also above p) is not.
  G.addDependency(Q1, P);
  std::vector<std::string> Findings = G.verify();
  auto Into = [&](const char *Edge) {
    return std::count_if(Findings.begin(), Findings.end(),
                         [&](const std::string &F) {
                           return F.find(Edge) != std::string::npos;
                         });
  };
  EXPECT_EQ(Into("'q1' -> 'p'"), 1);
  EXPECT_EQ(Into("'q2' -> 'p'"), 0);
  G.endExecution(P);
}

TEST_F(DepGraphTest, DisconnectedPartitionsEvaluateIndependently) {
  DepGraph G(Stats);
  {
    FakeStorage SA(G), SB(G);
    FakeProc PA(G), PB(G);
    recordRead(G, PA, SA);
    recordRead(G, PB, SB);
    EXPECT_FALSE(G.samePartition(PA, PB));
    G.markInconsistent(SA);
    // Only A's partition has pending work.
    EXPECT_TRUE(G.hasPendingFor(PA));
    EXPECT_FALSE(G.hasPendingFor(PB));
    G.evaluateFor(PB); // No-op.
    EXPECT_TRUE(PA.isConsistent());
    EXPECT_EQ(G.numPending(), 1u);
    G.evaluateFor(PA);
    EXPECT_FALSE(PA.isConsistent());
    EXPECT_TRUE(PB.isConsistent());
  }
}

TEST_F(DepGraphTest, AddingEdgeMergesPartitions) {
  DepGraph G(Stats);
  {
    FakeStorage SA(G), SB(G);
    FakeProc P(G);
    G.beginExecution(P);
    G.addDependency(P, SA);
    G.addDependency(P, SB);
    G.endExecution(P);
    EXPECT_TRUE(G.samePartition(SA, SB));
    EXPECT_GE(Stats.PartitionUnions, 2u);
  }
}

TEST_F(DepGraphTest, MergeCarriesPendingWork) {
  DepGraph G(Stats);
  {
    FakeStorage SA(G), SB(G);
    FakeProc PB(G);
    recordRead(G, PB, SB);
    G.markInconsistent(SA); // Pending in A's (separate) partition.
    // Now connect: PB also reads SA.
    G.beginExecution(PB);
    G.addDependency(PB, SB);
    G.addDependency(PB, SA);
    G.endExecution(PB);
    EXPECT_TRUE(G.hasPendingFor(PB));
    G.evaluateFor(PB);
    EXPECT_FALSE(PB.isConsistent());
    EXPECT_EQ(G.numPending(), 0u);
  }
}

TEST_F(DepGraphTest, PartitioningDisabledUsesOneGlobalSet) {
  DepGraph::Config Cfg;
  Cfg.Partitioning = false;
  DepGraph G(Stats, Cfg);
  {
    FakeStorage SA(G), SB(G);
    FakeProc PA(G), PB(G);
    recordRead(G, PA, SA);
    recordRead(G, PB, SB);
    G.markInconsistent(SA);
    // With one global set, B's "partition" also reports pending work.
    EXPECT_TRUE(G.hasPendingFor(PB));
    G.evaluateFor(PB); // Drains everything.
    EXPECT_FALSE(PA.isConsistent());
  }
}

TEST_F(DepGraphTest, PartitionForestShrinksWithTheGraph) {
  DepGraph G(Stats);
  FakeStorage SA(G), SB(G), SC(G);
  FakeProc PA(G), PB(G), PC(G);
  recordRead(G, PA, SA);
  recordRead(G, PB, SB);
  // PC read SB once and now reads only SC: SB and SC share a partition
  // with no edge between them, which rollback relies on.
  recordRead(G, PC, SB);
  G.removePredEdges(PC);
  recordRead(G, PC, SC);
  auto Membership = [&] {
    return G.samePartition(SA, PA) && G.samePartition(SB, PB) &&
           G.samePartition(SB, SC) && G.samePartition(PB, PC) &&
           !G.samePartition(SA, SB);
  };
  ASSERT_TRUE(Membership());

  // Nothing is compacted while work is pending.
  SA.NextChanged = false;
  G.markInconsistent(SA);
  for (int I = 0; I < 1000; ++I)
    FakeStorage Temp(G);
  EXPECT_GT(G.numPartitionElements(), 1000u);
  G.evaluateAll();

  // A create/destroy churn keeps the forest within twice the live nodes
  // (plus a constant) and preserves every partition's membership.
  for (int I = 0; I < 10000; ++I) {
    FakeStorage Temp(G);
    ASSERT_LE(G.numPartitionElements(), 2 * G.numLiveNodes() + 128)
        << "after " << I << " registrations";
  }
  EXPECT_TRUE(Membership());
  EXPECT_TRUE(G.verify().empty());

  // Pending work still finds its partition.
  G.markInconsistent(SB);
  EXPECT_TRUE(G.hasPendingFor(PC));
  EXPECT_FALSE(G.hasPendingFor(PA));
  G.evaluateFor(PC);
  EXPECT_FALSE(PB.isConsistent());
  EXPECT_TRUE(PA.isConsistent());
  EXPECT_EQ(G.numPending(), 0u);
}

TEST_F(DepGraphTest, NodeDestructionInvalidatesDependents) {
  DepGraph G(Stats);
  {
    FakeProc P(G);
    {
      FakeStorage S(G);
      recordRead(G, P, S);
      EXPECT_TRUE(P.isConsistent());
    } // S dies here.
    G.evaluateAll();
    EXPECT_FALSE(P.isConsistent());
    EXPECT_EQ(P.numPredecessors(), 0u);
  }
}

TEST_F(DepGraphTest, QueuedNodeCanBeDestroyedSafely) {
  DepGraph G(Stats);
  {
    FakeProc P(G);
    {
      FakeStorage S(G);
      recordRead(G, P, S);
      G.markInconsistent(S);
      EXPECT_EQ(G.numPending(), 1u);
    } // S dies while queued.
    // S's own entry is gone; P was queued by the destruction cascade.
    G.evaluateAll();
    EXPECT_FALSE(P.isConsistent());
  }
}

TEST_F(DepGraphTest, MarkingIsIdempotent) {
  DepGraph G(Stats);
  {
    FakeStorage S(G);
    G.markInconsistent(S);
    G.markInconsistent(S);
    G.markInconsistent(S);
    EXPECT_EQ(G.numPending(), 1u);
    G.evaluateAll();
  }
}

TEST_F(DepGraphTest, StatsTrackLiveCounts) {
  DepGraph G(Stats);
  {
    FakeStorage S(G);
    FakeProc P(G);
    recordRead(G, P, S);
    EXPECT_EQ(G.numLiveNodes(), 2u);
    EXPECT_EQ(G.numLiveEdges(), 1u);
  }
  EXPECT_EQ(G.numLiveNodes(), 0u);
  EXPECT_EQ(G.numLiveEdges(), 0u);
  EXPECT_EQ(Stats.NodesCreated, 2u);
  EXPECT_EQ(Stats.NodesDestroyed, 2u);
}

} // namespace
} // namespace alphonse
