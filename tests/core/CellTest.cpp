//===- CellTest.cpp - Tracked storage tests -------------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the access/modify transformations embodied by Cell<T>
/// (Algorithms 3 and 4): lazy node creation, the untracked fast path,
/// write quiescence, and snapshot semantics.
///
//===----------------------------------------------------------------------===//

#include "core/Alphonse.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <string>

namespace alphonse {
namespace {

TEST(CellTest, UntrackedUntilReadInsideIncrementalCall) {
  Runtime RT;
  Cell<int> C(RT, 1);
  C.set(2);
  C.set(3);
  EXPECT_FALSE(C.isTracked());
  EXPECT_EQ(RT.stats().NodesCreated, 0u);
  EXPECT_EQ(RT.stats().TrackedWrites, 0u);
  EXPECT_EQ(C.get(), 3); // Mutator-side read: still untracked.
  EXPECT_FALSE(C.isTracked());
}

TEST(CellTest, ReadInsideMaintainedProcedureCreatesNodeAndEdge) {
  Runtime RT;
  Cell<int> C(RT, 7);
  Maintained<int()> F(RT, [&C] { return C.get() * 2; });
  EXPECT_EQ(F(), 14);
  EXPECT_TRUE(C.isTracked());
  ASSERT_NE(C.node(), nullptr);
  EXPECT_EQ(C.node()->numSuccessors(), 1u);
}

TEST(CellTest, WriteToTrackedCellInvalidatesReader) {
  Runtime RT;
  Cell<int> C(RT, 7);
  Maintained<int()> F(RT, [&C] { return C.get() * 2; });
  EXPECT_EQ(F(), 14);
  C.set(10);
  EXPECT_EQ(F(), 20);
  EXPECT_EQ(RT.stats().ProcExecutions, 2u);
}

TEST(CellTest, RepeatedCallsHitTheCache) {
  Runtime RT;
  Cell<int> C(RT, 7);
  Maintained<int()> F(RT, [&C] { return C.get() * 2; });
  F();
  F();
  F();
  EXPECT_EQ(RT.stats().ProcExecutions, 1u);
  EXPECT_EQ(RT.stats().CacheHits, 2u);
}

TEST(CellTest, WritingTheSameValueIsQuiescent) {
  Runtime RT;
  Cell<int> C(RT, 7);
  Maintained<int()> F(RT, [&C] { return C.get() * 2; });
  F();
  C.set(7); // Same value: Algorithm 4's comparison suppresses the change.
  EXPECT_EQ(RT.stats().QuiescentWrites, 1u);
  F();
  EXPECT_EQ(RT.stats().ProcExecutions, 1u);
}

TEST(CellTest, WriteAndWriteBackTriggersNoRecomputation) {
  // Experiment E11: x -> y -> x between evaluations is a net no-change.
  Runtime RT;
  Cell<int> C(RT, 1);
  Maintained<int()> F(RT, [&C] { return C.get() + 100; });
  EXPECT_EQ(F(), 101);
  C.set(2);
  C.set(1); // Back to the snapshot value before any evaluation ran.
  EXPECT_EQ(F(), 101);
  EXPECT_EQ(RT.stats().ProcExecutions, 1u);
  EXPECT_GE(RT.stats().QuiescenceCutoffs, 1u);
}

TEST(CellTest, DistinctWritesBatchIntoOneRecomputation) {
  Runtime RT;
  Cell<int> C(RT, 1);
  Maintained<int()> F(RT, [&C] { return C.get() + 100; });
  F();
  C.set(2);
  C.set(3);
  C.set(4);
  EXPECT_EQ(F(), 104);
  EXPECT_EQ(RT.stats().ProcExecutions, 2u); // One initial + one update.
}

TEST(CellTest, PeekNeverTracks) {
  Runtime RT;
  Cell<int> C(RT, 5);
  Maintained<int()> F(RT, [&C] { return C.peek(); });
  EXPECT_EQ(F(), 5);
  EXPECT_FALSE(C.isTracked());
  C.set(6);
  EXPECT_EQ(F(), 5); // Stale by design: peek() recorded no dependence.
}

TEST(CellTest, AssignmentOperatorWrites) {
  Runtime RT;
  Cell<std::string> C(RT, "a");
  Maintained<int()> F(RT, [&C] { return static_cast<int>(C.get().size()); });
  EXPECT_EQ(F(), 1);
  C = std::string("abc");
  EXPECT_EQ(F(), 3);
}

TEST(CellTest, PointerCellsTrackIdentity) {
  Runtime RT;
  int A = 1, B = 2;
  Cell<int *> P(RT, &A);
  Maintained<int()> F(RT, [&P] { return *P.get(); });
  EXPECT_EQ(F(), 1);
  P.set(&B);
  EXPECT_EQ(F(), 2);
  P.set(&B); // Same pointer: quiescent.
  EXPECT_EQ(RT.stats().QuiescentWrites, 1u);
}

TEST(CellTest, UncheckedScopeSuppressesDependencies) {
  Runtime RT;
  Cell<int> Checked(RT, 1);
  Cell<int> Unchecked(RT, 10);
  Maintained<int()> F(RT, [&] {
    int Sum = Checked.get();
    {
      UncheckedScope Scope(RT);
      Sum += Unchecked.get();
    }
    return Sum;
  });
  EXPECT_EQ(F(), 11);
  EXPECT_FALSE(Unchecked.isTracked()); // The read recorded nothing.
  Unchecked.set(99);
  EXPECT_EQ(F(), 11); // Stale: the programmer asserted independence.
  Checked.set(2);
  EXPECT_EQ(F(), 101); // Re-execution reads the new unchecked value too.
}

TEST(CellTest, WriterDependsOnWrittenStorage) {
  // Algorithm 4 begins with access(l): a procedure that writes a location
  // must re-run if someone else overwrites it, to "set it back".
  Runtime RT;
  Cell<int> In(RT, 1);
  Cell<int> Out(RT, 0);
  Maintained<int()> F(RT, [&] {
    Out.set(In.get() * 10);
    return Out.get();
  });
  EXPECT_EQ(F(), 10);
  // The mutator clobbers Out; F depends on Out and must be invalidated.
  Out.set(0);
  EXPECT_EQ(F(), 10); // Re-established the property.
  EXPECT_EQ(Out.peek(), 10);
  EXPECT_GE(RT.stats().ProcExecutions, 2u);
}

TEST(CellTest, SelfWriteConvergesWithoutLooping) {
  Runtime RT;
  Cell<int> In(RT, 1);
  Cell<int> Out(RT, 0);
  Maintained<int()> F(RT, [&] {
    Out.set(In.get() * 10);
    return Out.get();
  });
  F();
  F();
  F();
  // Writing Out inside F marks F's own dependence; on re-demand F re-runs
  // once, writes the same value (quiescent), and settles.
  EXPECT_LE(RT.stats().ProcExecutions, 3u);
  EXPECT_EQ(Out.peek(), 10);
}

TEST(CellTest, WriteBackAfterAQueuedReadNotifiesTheReader) {
  // Theorem 5.1 across the variable cutoff: a reader that saw the live
  // value while the vertex was queued must be notified at the refresh,
  // even when a write-back has restored the snapshot by then.
  {
    SCOPED_TRACE("a new demand reader");
    Runtime RT;
    Cell<int> S(RT, 0, "s");
    Maintained<int()> G(RT, [&] { return S.get() * 10; });
    Maintained<int(int)> F(RT, [&](int K) { return S.get() + K; });
    EXPECT_EQ(G(), 0); // s is tracked, with snapshot 0.
    S.set(1);          // Queues s.
    EXPECT_EQ(F(0), 1); // A new instance reads the live 1.
    S.set(0);           // Back at the snapshot: the write queues nothing.
    EXPECT_EQ(F(0), 0);
    EXPECT_EQ(G(), 0);
  }
  {
    SCOPED_TRACE("inside a committed batch");
    Runtime RT;
    Cell<int> S(RT, 0, "s");
    Maintained<int()> G(RT, [&] { return S.get() * 10; });
    Maintained<int(int)> F(RT, [&](int K) { return S.get() + K; });
    EXPECT_EQ(G(), 0);
    RT.beginBatch();
    S.set(1);
    EXPECT_EQ(F(0), 1);
    S.set(0);
    EXPECT_TRUE(RT.commitBatch());
    EXPECT_EQ(F(0), 0);
  }
  {
    SCOPED_TRACE("an eager reader");
    Runtime RT;
    Cell<int> S(RT, 0, "s");
    Maintained<int()> G(RT, [&] { return S.get() * 10; });
    Maintained<int(int)> E(
        RT, [&](int K) { return S.get() + K; }, EvalStrategy::Eager);
    EXPECT_EQ(G(), 0);
    S.set(1);
    EXPECT_EQ(E(0), 1);
    S.set(0);
    RT.pump();
    ASSERT_NE(E.peekCached(0), nullptr);
    EXPECT_EQ(*E.peekCached(0), 0);
    EXPECT_EQ(E(0), 0);
  }
}

TEST(CellTest, AWriteBackBeforeTheReadReRunsNoReader) {
  // A run that moves a location off its snapshot and back before reading
  // it saw the snapshot value: the location's refresh must not re-run it
  // (with every such read flagged, this eager writer re-ran until the
  // divergence guard quarantined it).
  Runtime RT;
  Cell<int> X(RT, 0, "x");
  Cell<int> Y(RT, 0, "y");
  Maintained<int()> F(
      RT,
      [&] {
        X.set(Y.get() + 5);
        X.set(0);
        return X.get() + Y.get();
      },
      EvalStrategy::Eager, "f");
  EXPECT_EQ(F(), 0);
  RT.pump();
  uint64_t Execs0 = RT.stats().ProcExecutions;
  Y.set(1);
  RT.pump();
  EXPECT_EQ(RT.graph().numQuarantined(), 0u);
  EXPECT_EQ(RT.stats().ProcExecutions, Execs0 + 1);
  EXPECT_EQ(F(), 1);
}

TEST(CellTest, ARunReadingItsOwnTemporaryWriteRunsOnce) {
  // Save, modify, read, restore: the run reads a value it wrote itself
  // while the location is queued. Its result does not depend on that
  // value's history, so the refresh after the restore must not re-run it
  // (with the read flagged, this eager body re-ran until the divergence
  // guard quarantined it).
  Runtime RT;
  Cell<int> X(RT, 0, "x");
  Cell<int> Y(RT, 0, "y");
  Maintained<int()> F(
      RT,
      [&] {
        X.set(X.get() + 1);
        int V = X.get();
        X.set(X.get() - 1);
        return V + Y.get();
      },
      EvalStrategy::Eager, "f");
  EXPECT_EQ(F(), 1);
  RT.pump();
  EXPECT_EQ(RT.stats().ProcExecutions, 1u);
  Y.set(1);
  RT.pump();
  EXPECT_EQ(RT.graph().numQuarantined(), 0u);
  EXPECT_EQ(RT.stats().ProcExecutions, 2u);
  EXPECT_EQ(F(), 2);
  EXPECT_EQ(RT.stats().ProcExecutions, 2u);
  EXPECT_EQ(X.peek(), 0);

  // A demand body of the same shape serves its cache at the next call.
  Maintained<int()> H(
      RT,
      [&] {
        X.set(X.get() + 1);
        int V = X.get();
        X.set(X.get() - 1);
        return V;
      },
      EvalStrategy::Demand, "h");
  EXPECT_EQ(H(), 1);
  EXPECT_EQ(H(), 1);
  EXPECT_EQ(RT.stats().ProcExecutions, 3u);
  EXPECT_EQ(RT.graph().numQuarantined(), 0u);
}

TEST(CellTest, ACalleeThatReadItsCallersTemporaryWriteIsNotified) {
  // A cached callee that reads its caller's temporary value holds a result
  // of that value; the restore must not leave it to answer later calls.
  // The callee re-runs instead, and so does its caller, which read the
  // callee: a demand caller at each call, an eager caller until the
  // divergence guard quarantines it (DESIGN.md §5).
  {
    SCOPED_TRACE("a demand caller");
    Runtime RT;
    Cell<int> X(RT, 0, "x");
    Maintained<int()> G(
        RT, [&] { return X.get() * 10; }, EvalStrategy::Demand, "g");
    Maintained<int()> F(
        RT,
        [&] {
          X.set(X.get() + 1);
          int V = G();
          X.set(X.get() - 1);
          return V;
        },
        EvalStrategy::Demand, "f");
    EXPECT_EQ(F(), 10);
    EXPECT_EQ(G(), 0);
    EXPECT_EQ(F(), 10);
    EXPECT_EQ(G(), 0);
    EXPECT_EQ(RT.graph().numQuarantined(), 0u);
    EXPECT_EQ(X.peek(), 0);
  }
  {
    SCOPED_TRACE("an eager caller");
    Runtime RT;
    Cell<int> X(RT, 0, "x");
    Maintained<int()> G(
        RT, [&] { return X.get() * 10; }, EvalStrategy::Demand, "g");
    Maintained<int()> F(
        RT,
        [&] {
          X.set(X.get() + 1);
          int V = G();
          X.set(X.get() - 1);
          return V;
        },
        EvalStrategy::Eager, "f");
    EXPECT_EQ(F(), 10);
    RT.pump();
    ASSERT_EQ(RT.graph().numQuarantined(), 1u);
    const FaultInfo *FI = RT.graph().fault(*F.instanceNode());
    ASSERT_NE(FI, nullptr);
    EXPECT_EQ(FI->Kind, FaultKind::Divergence);
    EXPECT_EQ(G(), 0);
    EXPECT_EQ(X.peek(), 0);
  }
}

TEST(CellTest, ReadOfAQuarantinedLocationIsNotifiedAtItsReset) {
  // A quarantined vertex takes no part in propagation, so a reader sees
  // the live value until the reset's refresh; that refresh must notify it
  // even when the live value is back at the snapshot by then.
  Runtime RT;
  Cell<int> S(RT, 0, "s");
  Maintained<int()> G(RT, [&] { return S.get() * 10; });
  Maintained<int(int)> F(RT, [&](int K) { return S.get() + K; });
  EXPECT_EQ(G(), 0);
  {
    FaultInjector Inj;
    FaultInjector::Scope Active(Inj);
    Inj.armThrow("s");
    S.set(5);
    RT.pump(); // The refresh throws: s is quarantined, snapshot still 0.
  }
  ASSERT_TRUE(S.node()->isQuarantined());
  EXPECT_EQ(F(0), 5);
  S.set(0);
  EXPECT_TRUE(RT.graph().resetQuarantined(*S.node()));
  EXPECT_EQ(F(0), 0);
  EXPECT_EQ(G(), 0);
}

} // namespace
} // namespace alphonse
