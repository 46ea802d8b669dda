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

#include <memory>

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
    graph().removePredEdges(*this);
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
