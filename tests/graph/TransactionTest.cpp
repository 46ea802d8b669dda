//===- TransactionTest.cpp - Transactional mutation batch tests -----------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for transactional mutation batches (DESIGN.md "Transactions and
/// recovery"): commit applies a batch atomically, any fault during the
/// batch or its commit propagation rolls program state back to the
/// pre-batch state (the graph then recomputes what the restored values
/// reach, and DepGraph::verify() holds throughout), the journal holds
/// program state only, epochs track batch outcomes, and a fault-free retry
/// of the same batch commits.
///
//===----------------------------------------------------------------------===//

#include "core/Alphonse.h"
#include "support/FaultInjector.h"
#include "trees/HeightTree.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace alphonse {
namespace {

TEST(TransactionTest, CommitAppliesBatchAtomically) {
  Runtime RT;
  Cell<int> A(RT, 1, "a");
  Cell<int> B(RT, 2, "b");
  Maintained<int(int)> F(
      RT, [&](int) { return A.get() + B.get(); }, EvalStrategy::Eager, "f");
  EXPECT_EQ(F(0), 3);
  RT.pump();
  uint64_t E0 = RT.epoch();

  RT.beginBatch();
  EXPECT_TRUE(RT.inBatch());
  A.set(10);
  B.set(20);
  EXPECT_TRUE(RT.commitBatch());
  EXPECT_FALSE(RT.inBatch());

  EXPECT_EQ(F(0), 30);
  EXPECT_EQ(RT.epoch(), E0 + 1);
  EXPECT_EQ(RT.stats().TxnBegun, 1u);
  EXPECT_EQ(RT.stats().TxnCommitted, 1u);
  EXPECT_EQ(RT.stats().TxnRolledBack, 0u);
  EXPECT_GT(RT.stats().TxnUndoEntries, 0u);
  EXPECT_TRUE(RT.graph().verify().empty());
}

TEST(TransactionTest, ExplicitRollbackRestoresValues) {
  Runtime RT;
  Cell<int> A(RT, 1, "a");
  Maintained<int(int)> F(
      RT, [&](int X) { return A.get() * X; }, EvalStrategy::Demand, "f");
  EXPECT_EQ(F(3), 3);
  uint64_t E0 = RT.epoch();

  RT.beginBatch();
  A.set(7);
  EXPECT_EQ(F(3), 21); // The batch observes its own writes.
  RT.rollbackBatch();

  EXPECT_EQ(A.peek(), 1);
  EXPECT_EQ(F(3), 3);
  EXPECT_EQ(RT.epoch(), E0 + 1);
  EXPECT_EQ(RT.stats().TxnRolledBack, 1u);
  EXPECT_EQ(RT.graph().numPending(), 0u);
  EXPECT_TRUE(RT.graph().verify().empty());
}

TEST(TransactionTest, TransactionGuardRollsBackOnUnwind) {
  Runtime RT;
  Cell<int> A(RT, 5, "a");
  {
    Transaction Txn(RT);
    A.set(99);
    EXPECT_EQ(A.peek(), 99);
    // No commit: the guard's destructor must roll back (as it would if an
    // exception unwound through this scope).
  }
  EXPECT_EQ(A.peek(), 5);
  EXPECT_FALSE(RT.inBatch());
  EXPECT_EQ(RT.stats().TxnRolledBack, 1u);
}

TEST(TransactionTest, FaultDuringCommitRollsBackAndRetryCommits) {
  Runtime RT;
  Cell<int> A(RT, 1, "a");
  Cell<int> B(RT, 2, "b");
  Maintained<int(int)> F(
      RT, [&](int) { return A.get() + B.get(); }, EvalStrategy::Eager, "f");
  EXPECT_EQ(F(0), 3);
  RT.pump();
  uint64_t E0 = RT.epoch();

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armThrow("f"); // The eager re-execution during commit throws.

  {
    Transaction Txn(RT);
    A.set(10);
    B.set(20);
    EXPECT_FALSE(Txn.commit());
  }

  // Every observable is exactly as before the batch.
  EXPECT_EQ(A.peek(), 1);
  EXPECT_EQ(B.peek(), 2);
  EXPECT_EQ(F(0), 3); // Recomputed from the restored inputs.
  EXPECT_EQ(RT.graph().numQuarantined(), 0u);
  EXPECT_TRUE(RT.graph().verify().empty());
  EXPECT_EQ(RT.epoch(), E0 + 1);
  EXPECT_EQ(RT.stats().TxnRolledBack, 1u);
  const FaultInfo *FI = RT.graph().abortFault();
  ASSERT_NE(FI, nullptr);
  EXPECT_EQ(FI->Kind, FaultKind::Exception);
  EXPECT_EQ(FI->NodeName, "f");

  // Retry of the same batch without the fault (the injector fires once).
  {
    Transaction Txn(RT);
    A.set(10);
    B.set(20);
    EXPECT_TRUE(Txn.commit());
  }
  EXPECT_EQ(F(0), 30);
  EXPECT_EQ(RT.stats().TxnCommitted, 1u);
  EXPECT_TRUE(RT.graph().verify().empty());
}

TEST(TransactionTest, MidBatchDemandFaultRollsBack) {
  Runtime RT;
  Cell<int> C(RT, 4, "c");
  Maintained<int(int)> G(
      RT, [&](int X) { return C.get() + X; }, EvalStrategy::Demand, "g");
  EXPECT_EQ(G(1), 5);

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armThrow("g");

  Transaction Txn(RT);
  C.set(40);
  EXPECT_THROW(G(1), InjectedFault); // Demand inside the batch faults.
  EXPECT_FALSE(Txn.commit());        // The fault poisons the batch.

  EXPECT_EQ(C.peek(), 4);
  EXPECT_EQ(RT.graph().numQuarantined(), 0u);
  ASSERT_NE(G.instanceNode(1), nullptr);
  EXPECT_EQ(G(1), 5);
  EXPECT_TRUE(RT.graph().verify().empty());
}

TEST(TransactionTest, RollbackDestroysNodesCreatedInBatch) {
  Runtime RT;
  Cell<int> A(RT, 1, "a");
  Maintained<int(int)> F(
      RT, [&](int X) { return A.get() + X; }, EvalStrategy::Demand, "f");
  EXPECT_EQ(F(0), 1); // Pre-batch: node for key 0 plus a's storage node.
  size_t Nodes0 = RT.graph().numLiveNodes();
  size_t Edges0 = RT.graph().numLiveEdges();

  RT.beginBatch();
  EXPECT_EQ(F(7), 8); // Creates the key-7 instance node inside the batch.
  EXPECT_EQ(F.numInstances(), 2u);
  RT.rollbackBatch();

  EXPECT_EQ(F.numInstances(), 1u); // The in-batch instance is gone.
  EXPECT_EQ(RT.graph().numLiveNodes(), Nodes0);
  EXPECT_EQ(RT.graph().numLiveEdges(), Edges0);
  EXPECT_EQ(F.instanceNode(7), nullptr);
  EXPECT_TRUE(RT.graph().verify().empty());
  EXPECT_EQ(F(0), 1);
}

TEST(TransactionTest, CommitSiteFaultInjectionAbortsBatch) {
  Runtime RT;
  Cell<int> A(RT, 1, "a");
  Maintained<int(int)> F(
      RT, [&](int) { return A.get(); }, EvalStrategy::Eager, "f");
  EXPECT_EQ(F(0), 1);
  RT.pump();

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armThrow("txn.commit"); // Fault at the commit boundary itself.

  Transaction Txn(RT);
  A.set(2);
  EXPECT_FALSE(Txn.commit());
  EXPECT_EQ(A.peek(), 1);
  EXPECT_EQ(F(0), 1);
  const FaultInfo *FI = RT.graph().abortFault();
  ASSERT_NE(FI, nullptr);
  EXPECT_EQ(FI->NodeName, "txn.commit");
  EXPECT_TRUE(RT.graph().verify().empty());
}

TEST(TransactionTest, PreexistingQuarantineSurvivesRollback) {
  Runtime RT;
  Cell<int> A(RT, 1, "a");
  Cell<int> B(RT, 2, "b");
  Maintained<int(int)> Bad(
      RT, [&](int) { return A.get(); }, EvalStrategy::Demand, "bad");

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armThrow("bad");
  EXPECT_THROW(Bad(0), InjectedFault); // Quarantined before any batch.
  ASSERT_EQ(RT.graph().numQuarantined(), 1u);

  // A rolled-back batch must not disturb the pre-existing quarantine.
  Transaction Txn(RT);
  B.set(20);
  Txn.rollback();
  EXPECT_EQ(RT.graph().numQuarantined(), 1u);
  const FaultInfo *FI = RT.graph().fault(*Bad.instanceNode(0));
  ASSERT_NE(FI, nullptr);
  EXPECT_EQ(FI->NodeName, "bad");
  EXPECT_TRUE(RT.graph().verify().empty());
}

TEST(TransactionTest, QuarantineResetInsideBatchIsNotReimposedOnRollback) {
  Runtime RT;
  Cell<int> A(RT, 1, "a");
  Maintained<int(int)> Bad(
      RT, [&](int) { return A.get(); }, EvalStrategy::Demand, "bad");

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armThrow("bad");
  EXPECT_THROW(Bad(0), InjectedFault);
  DepNode *N = Bad.instanceNode(0);
  ASSERT_NE(N, nullptr);

  // The batch resets the quarantine (recovery work), then rolls back. A
  // quarantine is graph state, not program state, so the rollback does not
  // re-impose it: the node stays in service and recomputes at its next
  // call.
  RT.beginBatch();
  EXPECT_TRUE(RT.graph().resetQuarantined(*N));
  EXPECT_EQ(RT.graph().numQuarantined(), 0u);
  RT.rollbackBatch();

  EXPECT_FALSE(N->isQuarantined());
  EXPECT_EQ(RT.graph().numQuarantined(), 0u);
  EXPECT_EQ(RT.graph().fault(*N), nullptr);
  EXPECT_TRUE(RT.graph().verify().empty());
  EXPECT_EQ(Bad(0), 1);
}

TEST(TransactionTest, RollbackSkipsAQuarantinedNodeThatDiedInTheBatch) {
  Runtime RT;
  Cell<int> A(RT, 1, "a");
  Maintained<int(int)> F(
      RT, [&](int X) { return A.get() + X; }, EvalStrategy::Demand, "f");
  EXPECT_EQ(F(0), 1);

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armThrow("f");

  // The batch quarantines f(0), then the node dies before the rollback:
  // the closure that would lift its quarantine must find it gone.
  RT.beginBatch();
  A.set(2);
  EXPECT_THROW(F(0), InjectedFault);
  ASSERT_EQ(RT.graph().numQuarantined(), 1u);
  F.erase(0);
  RT.rollbackBatch();

  EXPECT_EQ(RT.graph().numQuarantined(), 0u);
  EXPECT_TRUE(RT.graph().verify().empty());
  EXPECT_EQ(A.peek(), 1);
  EXPECT_EQ(F(0), 1);
}

TEST(TransactionTest, RollbackNotifiesTheReadersOfAQuarantinedLocation) {
  // A quarantined location is not refreshed before its reset, so the
  // rollback of a batch that wrote it notifies its readers itself: a
  // reader that recomputed inside the batch holds the batch's value.
  Runtime RT;
  Cell<int> S(RT, 0, "s");
  Maintained<int()> R(
      RT, [&] { return S.get() + 1; }, EvalStrategy::Demand, "r");
  EXPECT_EQ(R(), 1);
  {
    FaultInjector Inj;
    FaultInjector::Scope Active(Inj);
    Inj.armThrow("s");
    S.set(5);
    RT.pump(); // The refresh throws: s is quarantined, r inconsistent.
  }
  ASSERT_TRUE(S.node()->isQuarantined());

  RT.beginBatch();
  S.set(7);
  EXPECT_EQ(R(), 8);
  RT.rollbackBatch();

  EXPECT_TRUE(S.node()->isQuarantined());
  EXPECT_EQ(S.peek(), 5);
  EXPECT_EQ(R(), 6); // The pre-batch answer, not the batch's 8.
  EXPECT_TRUE(RT.graph().verify().empty());
  EXPECT_TRUE(RT.graph().resetQuarantined(*S.node()));
  EXPECT_EQ(R(), 6);
}

TEST(TransactionTest, EpochTracksBatchOutcomes) {
  Runtime RT;
  Cell<int> A(RT, 1, "a");
  Maintained<int(int)> F(
      RT, [&](int) { return A.get(); }, EvalStrategy::Eager, "f");
  EXPECT_EQ(F(0), 1);
  RT.pump();
  uint64_t E0 = RT.epoch();

  // Rolled-back batch: the epoch still advances (so epoch-keyed caches
  // know something ran).
  RT.beginBatch();
  A.set(2);
  RT.graph().evaluateAll();
  RT.rollbackBatch();
  EXPECT_EQ(RT.epoch(), E0 + 1);

  // Committed batch: the epoch advances again.
  RT.beginBatch();
  A.set(3);
  EXPECT_TRUE(RT.commitBatch());
  EXPECT_EQ(RT.epoch(), E0 + 2);
  EXPECT_EQ(F(0), 3);
}

TEST(TransactionTest, HeightTreeBatchFaultLeavesHeightsIntact) {
  Runtime RT;
  trees::HeightTree T(RT);
  // A small left spine: h(Root) = 3.
  auto *Root = T.makeNode();
  auto *Mid = T.makeNode();
  auto *Leaf = T.makeNode();
  T.setLeft(Root, Mid);
  T.setLeft(Mid, Leaf);
  EXPECT_EQ(T.height(Root), 3);
  RT.pump();

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  // Third height recompute demanded inside the batch throws.
  Inj.armThrow("Tree.height", /*AtNthHit=*/3);

  {
    Transaction Txn(RT);
    auto *NewLeaf = T.makeNode();
    T.setRight(Mid, NewLeaf);
    T.setRight(Root, T.makeNode());
    EXPECT_THROW(T.height(Root), InjectedFault);
    EXPECT_FALSE(Txn.commit());
    // The new nodes' cells survive (the tree pool owns them) but all
    // tracked pointers and cached heights are pre-batch again.
  }
  EXPECT_EQ(Mid->Right.peek(), T.nil());
  EXPECT_EQ(Root->Right.peek(), T.nil());
  EXPECT_EQ(RT.graph().numQuarantined(), 0u);
  EXPECT_EQ(T.height(Root), 3);
  EXPECT_EQ(T.height(Root),
            trees::HeightTree::exhaustiveHeight(Root, T.nil()));
  EXPECT_TRUE(RT.graph().verify().empty());

  // Fault-free retry commits and the heights update.
  {
    Transaction Txn(RT);
    auto *NewLeaf = T.makeNode();
    auto *Deep = T.makeNode();
    T.setLeft(Leaf, NewLeaf);
    T.setLeft(NewLeaf, Deep);
    EXPECT_TRUE(Txn.commit());
  }
  EXPECT_EQ(T.height(Root), 5);
  EXPECT_EQ(T.height(Root),
            trees::HeightTree::exhaustiveHeight(Root, T.nil()));
}

TEST(TransactionTest, CommitJournalsProgramStateOnly) {
  // A cone of eager readers over K cells: the commit re-executes every
  // reader and relinks their edges, and none of that is journaled. Only
  // the K writes are.
  constexpr int K = 8;
  Runtime RT;
  std::vector<std::unique_ptr<Cell<int>>> In;
  for (int I = 0; I < K; ++I)
    In.push_back(std::make_unique<Cell<int>>(RT, I, "in"));
  Maintained<int(int)> Pair(
      RT, [&](int I) { return In[I]->get() + In[(I + 1) % K]->get(); },
      EvalStrategy::Eager, "pair");
  Maintained<int()> Total(
      RT,
      [&] {
        int Sum = 0;
        for (int I = 0; I < K; ++I)
          Sum += Pair(I);
        return Sum;
      },
      EvalStrategy::Eager, "total");
  EXPECT_EQ(Total(), K * (K - 1));
  RT.pump();
  uint64_t Execs0 = RT.stats().ProcExecutions;
  uint64_t Entries0 = RT.stats().TxnUndoEntries;

  RT.beginBatch();
  for (int I = 0; I < K; ++I)
    In[I]->set(I + 100);
  EXPECT_TRUE(RT.commitBatch());

  EXPECT_EQ(RT.stats().ProcExecutions, Execs0 + K + 1); // The whole cone.
  EXPECT_EQ(RT.stats().TxnUndoEntries, Entries0 + K);   // The writes only.
  EXPECT_EQ(Total(), K * (K - 1) + 2 * 100 * K);
  EXPECT_TRUE(RT.graph().verify().empty());
}

TEST(TransactionTest, RollbackRecomputesOnlyWhatTheRestoredValuesReach) {
  // Two unrelated eager cones: a -> fa -> ga -> ha and b -> fb -> gb.
  Runtime RT;
  Cell<int> A(RT, 1, "a");
  Cell<int> B(RT, 2, "b");
  Maintained<int()> FA(RT, [&] { return A.get() * 10; }, EvalStrategy::Eager,
                       "fa");
  Maintained<int()> GA(RT, [&] { return FA() + 1; }, EvalStrategy::Eager,
                       "ga");
  Maintained<int()> HA(RT, [&] { return GA() + 1; }, EvalStrategy::Eager,
                       "ha");
  Maintained<int()> FB(RT, [&] { return B.get() * 10; }, EvalStrategy::Eager,
                       "fb");
  Maintained<int()> GB(RT, [&] { return FB() + 1; }, EvalStrategy::Eager,
                       "gb");
  EXPECT_EQ(HA(), 12);
  EXPECT_EQ(GB(), 21);
  RT.pump();

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armThrow("ha");

  // The commit re-runs the a cone, whose last node throws: the batch rolls
  // back, and fa and ga keep the values the batch gave them.
  RT.beginBatch();
  A.set(5);
  EXPECT_FALSE(RT.commitBatch());
  EXPECT_EQ(A.peek(), 1);
  EXPECT_EQ(*GA.peekCached(), 51);
  EXPECT_GT(RT.graph().numPending(), 0u);
  EXPECT_EQ(RT.graph().numQuarantined(), 0u);
  EXPECT_TRUE(RT.graph().verify().empty());

  // The next pump re-runs the a cone only, back to the pre-batch values.
  uint64_t Execs0 = RT.stats().ProcExecutions;
  RT.pump();
  EXPECT_EQ(RT.stats().ProcExecutions, Execs0 + 3);
  EXPECT_EQ(RT.graph().numPending(), 0u);
  EXPECT_EQ(*FA.peekCached(), 10);
  EXPECT_EQ(*GA.peekCached(), 11);
  EXPECT_EQ(*HA.peekCached(), 12);
  EXPECT_EQ(*FB.peekCached(), 20);
  EXPECT_EQ(*GB.peekCached(), 21);
  EXPECT_EQ(HA(), 12);
  EXPECT_EQ(GB(), 21);
  EXPECT_EQ(RT.stats().ProcExecutions, Execs0 + 3); // Cache hits.
  EXPECT_TRUE(RT.graph().verify().empty());
}

} // namespace
} // namespace alphonse
