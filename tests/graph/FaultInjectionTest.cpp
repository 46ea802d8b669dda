//===- FaultInjectionTest.cpp - Fail-safe evaluator tests -----------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the failure model: exception-safe propagation (a throwing
/// recompute quarantines its node and the rest of the graph keeps
/// working), divergence and cycle quarantine, the EvalStepLimit backstop,
/// quarantine reset, DepGraph::verify() auditing, and the deterministic
/// FaultInjector harness that drives it all.
///
//===----------------------------------------------------------------------===//

#include "core/Alphonse.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace alphonse {
namespace {

TEST(FaultInjectionTest, InjectedThrowOnDemandCallQuarantinesInstance) {
  Runtime RT;
  Cell<int> C(RT, 1, "c");
  Maintained<int(int)> F(
      RT, [&](int X) { return C.get() + X; }, EvalStrategy::Demand, "f");

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armThrow("f"); // First execution of any "f" instance throws.

  EXPECT_THROW(F(10), InjectedFault);
  // The protocol frames unwound: nothing left on the incremental call
  // stack, the evaluator is idle, and the instance is quarantined with
  // the captured exception.
  EXPECT_EQ(RT.callDepth(), 0u);
  EXPECT_FALSE(RT.graph().isEvaluating());
  DepNode *N = F.instanceNode(10);
  ASSERT_NE(N, nullptr);
  EXPECT_TRUE(N->isQuarantined());
  EXPECT_EQ(RT.graph().numQuarantined(), 1u);
  const FaultInfo *FI = RT.graph().fault(*N);
  ASSERT_NE(FI, nullptr);
  EXPECT_EQ(FI->Kind, FaultKind::Exception);
  EXPECT_NE(FI->Message.find("injected fault"), std::string::npos);
  ASSERT_TRUE(FI->Nested);
  EXPECT_THROW(std::rethrow_exception(FI->Nested), InjectedFault);
  EXPECT_TRUE(RT.graph().verify().empty());

  // Calling again surfaces the original fault instead of stale data.
  EXPECT_THROW(F(10), QuarantinedError);

  // Explicit reset returns the instance to service (the injector only
  // fires once by default).
  EXPECT_TRUE(RT.graph().resetQuarantined(*N));
  EXPECT_EQ(F(10), 11);
  EXPECT_EQ(RT.graph().numQuarantined(), 0u);
  EXPECT_EQ(RT.stats().NodesQuarantined, 1u);
  EXPECT_EQ(RT.stats().QuarantineResets, 1u);
}

TEST(FaultInjectionTest, ThrowDuringPumpLeavesOtherPartitionsWorking) {
  Runtime RT;
  Cell<int> X(RT, 1, "x");
  Cell<int> Y(RT, 1, "y");
  Maintained<int(int)> FX(
      RT, [&](int) { return X.get(); }, EvalStrategy::Eager, "fx");
  Maintained<int(int)> FY(
      RT, [&](int) { return Y.get(); }, EvalStrategy::Eager, "fy");
  EXPECT_EQ(FX(0), 1);
  EXPECT_EQ(FY(0), 1);

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armThrow("fx", /*AtNthHit=*/1);

  X.set(2);
  Y.set(2);
  RT.pump(); // fx's recompute throws mid-drain.

  // fx is quarantined, but the unrelated partition converged in the same
  // pump and the graph's invariants held up through the unwind.
  EXPECT_TRUE(FX.instanceNode(0)->isQuarantined());
  EXPECT_EQ(FY(0), 2);
  EXPECT_TRUE(FY.hasCachedValue(0));
  EXPECT_EQ(RT.graph().numQuarantined(), 1u);
  EXPECT_TRUE(RT.graph().verify().empty());
  ASSERT_NE(RT.graph().fault(*FX.instanceNode(0)), nullptr);
  EXPECT_EQ(RT.graph().fault(*FX.instanceNode(0))->Kind,
            FaultKind::Exception);

  // Subsequent mutations still converge for healthy nodes.
  Y.set(3);
  RT.pump();
  EXPECT_EQ(FY(0), 3);

  // Recovery: reset, then the next pump re-executes fx against live state.
  Inj.disarm("fx");
  EXPECT_EQ(RT.graph().resetAllQuarantined(), 1u);
  RT.pump();
  EXPECT_EQ(FX(0), 2);
  EXPECT_TRUE(RT.graph().verify().empty());
}

TEST(FaultInjectionTest, StorageRefreshFaultQuarantinesAndRecovers) {
  Runtime RT;
  Cell<int> C(RT, 1, "c");
  Maintained<int(int)> F(
      RT, [&](int) { return C.get(); }, EvalStrategy::Eager, "f");
  EXPECT_EQ(F(0), 1);

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armThrow("c"); // The snapshot refresh throws.

  C.set(2);
  RT.pump();
  ASSERT_NE(C.node(), nullptr);
  EXPECT_TRUE(C.node()->isQuarantined());
  // The dependent was queued at quarantine time and recomputed against
  // the live value, so it did not silently keep the stale result.
  EXPECT_EQ(F(0), 2);
  EXPECT_TRUE(RT.graph().verify().empty());

  // While quarantined, the location no longer participates in propagation.
  C.set(3);
  RT.pump();
  EXPECT_EQ(F(0), 2);

  EXPECT_TRUE(RT.graph().resetQuarantined(*C.node()));
  RT.pump();
  EXPECT_EQ(F(0), 3);
}

TEST(FaultInjectionTest, PoisonCascadesToDependentsOnDemand) {
  Runtime RT;
  Cell<int> C(RT, 1, "c");
  Maintained<int(int)> A(
      RT, [&](int) { return C.get(); }, EvalStrategy::Demand, "a");
  Maintained<int(int)> B(
      RT, [&](int X) { return A(X) + 1; }, EvalStrategy::Demand, "b");

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armThrow("a");
  EXPECT_THROW(A(0), InjectedFault); // Quarantine a first...

  EXPECT_THROW(B(0), QuarantinedError); // ...then b trips over it.
  const FaultInfo *FB = RT.graph().fault(*B.instanceNode(0));
  ASSERT_NE(FB, nullptr);
  EXPECT_EQ(FB->Kind, FaultKind::Poisoned);
  EXPECT_EQ(RT.graph().numQuarantined(), 2u);
  EXPECT_EQ(RT.graph().quarantined().size(), 2u);

  // Resetting both brings the whole chain back.
  EXPECT_EQ(RT.graph().resetAllQuarantined(), 2u);
  EXPECT_EQ(B(0), 2);
  EXPECT_EQ(RT.graph().numQuarantined(), 0u);
}

TEST(FaultInjectionTest, DivergenceIsQuarantinedWithDiagnostic) {
  DepGraph::Config Cfg;
  Cfg.MaxReexecutions = 3;
  Runtime RT(Cfg);
  Cell<int> C(RT, 0, "c");
  Maintained<int(int)> F(
      RT, [&](int) { return C.get(); }, EvalStrategy::Eager, "f");
  EXPECT_EQ(F(0), 0);

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armDiverge("f"); // Every recompute self-invalidates.

  C.set(1);
  RT.pump(); // Terminates: the fourth re-execution trips the limit.

  DepNode *N = F.instanceNode(0);
  ASSERT_NE(N, nullptr);
  EXPECT_TRUE(N->isQuarantined());
  const FaultInfo *FI = RT.graph().fault(*N);
  ASSERT_NE(FI, nullptr);
  EXPECT_EQ(FI->Kind, FaultKind::Divergence);
  EXPECT_NE(FI->Message.find("DET"), std::string::npos);
  EXPECT_EQ(RT.stats().DivergenceTrips, 1u);
  EXPECT_TRUE(RT.graph().verify().empty());

  // Recovery once the fault is fixed (injector disarmed).
  Inj.disarm("f");
  EXPECT_TRUE(RT.graph().resetQuarantined(*N));
  RT.pump();
  EXPECT_EQ(F(0), 1);
}

TEST(FaultInjectionTest, ReentrantCycleThrowsCycleErrorAndQuarantines) {
  DepGraph::Config Cfg;
  Cfg.MaxReentrantDepth = 8;
  Runtime RT(Cfg);
  Maintained<int(int)> *Self = nullptr;
  Maintained<int(int)> F(
      RT,
      [&](int X) -> int {
        if (X == 0)
          return (*Self)(0); // Same arguments: demands its own value.
        return X;
      },
      EvalStrategy::Demand, "f");
  Self = &F;

  EXPECT_THROW(F(0), CycleError);
  EXPECT_EQ(RT.callDepth(), 0u); // Every re-entrant frame unwound.
  DepNode *N = F.instanceNode(0);
  ASSERT_NE(N, nullptr);
  EXPECT_TRUE(N->isQuarantined());
  EXPECT_EQ(N->reentrantDepth(), 0u);
  EXPECT_EQ(RT.graph().fault(*N)->Kind, FaultKind::Cycle);
  EXPECT_EQ(RT.stats().CycleFaults, 1u);
  EXPECT_TRUE(RT.graph().verify().empty());

  // A non-cyclic instance of the same procedure still works.
  EXPECT_EQ(F(7), 7);
}

TEST(FaultInjectionTest, StepLimitTripProducesStructuredDiagnostic) {
  DepGraph::Config Cfg;
  Cfg.EvalStepLimit = 20;
  Cfg.MaxReexecutions = 0; // Isolate the global backstop.
  Runtime RT(Cfg);
  Cell<int> C(RT, 0, "c");
  bool Stop = false;
  Maintained<int(int)> F(
      RT,
      [&](int) {
        int V = C.get();
        if (!Stop)
          C.set(V + 1); // Writes what it reads: never converges.
        return V;
      },
      EvalStrategy::Eager, "f");
  F(0);
  RT.pump(); // Would loop forever without the limit.

  EXPECT_EQ(RT.stats().StepLimitTrips, 1u);
  EXPECT_EQ(RT.graph().numQuarantined(), 1u);
  // The abort is reported as a structured fault naming the limit.
  auto Faults = RT.graph().quarantined();
  ASSERT_EQ(Faults.size(), 1u);
  EXPECT_EQ(Faults[0].second->Kind, FaultKind::StepLimit);
  EXPECT_NE(Faults[0].second->Message.find("EvalStepLimit"),
            std::string::npos);
  EXPECT_TRUE(RT.graph().verify().empty());

  // Fix the program, reset, and the next pump converges.
  Stop = true;
  RT.graph().resetAllQuarantined();
  RT.pump();
  EXPECT_EQ(RT.graph().numPending(), 0u);
  EXPECT_TRUE(RT.graph().verify().empty());
}

TEST(FaultInjectionTest, AuditAfterEvaluateStaysClean) {
  DepGraph::Config Cfg;
  Cfg.Audit = true; // Any finding would abort the test.
  Runtime RT(Cfg);
  Cell<int> C(RT, 1, "c");
  Maintained<int(int)> F(
      RT, [&](int X) { return C.get() * X; }, EvalStrategy::Eager, "f");
  EXPECT_EQ(F(2), 2);
  C.set(5);
  RT.pump();
  EXPECT_EQ(F(2), 10);

  // Fault storm, then audit again: the invariants must have survived.
  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armThrow("f");
  C.set(7);
  RT.pump();
  Inj.disarm("f");
  RT.graph().resetAllQuarantined();
  RT.pump();
  EXPECT_EQ(F(2), 14);
  EXPECT_TRUE(RT.graph().verify().empty());
}

TEST(FaultInjectionTest, UncheckedScopeUnwindsBalanced) {
  Runtime RT;
  Cell<int> C(RT, 1, "c");
  bool Throw = true;
  Maintained<int(int)> F(
      RT,
      [&](int X) {
        UncheckedScope Unchecked(RT);
        if (Throw)
          throw std::runtime_error("body failure inside unchecked region");
        return C.get() + X;
      },
      EvalStrategy::Demand, "f");

  EXPECT_EQ(RT.callDepth(), 0u);
  EXPECT_THROW(F(1), std::runtime_error);
  // Both the unchecked frame and the instance frame popped during
  // unwinding; the fault was still captured.
  EXPECT_EQ(RT.callDepth(), 0u);
  EXPECT_TRUE(F.instanceNode(1)->isQuarantined());
  EXPECT_EQ(RT.graph().fault(*F.instanceNode(1))->Kind,
            FaultKind::Exception);

  Throw = false;
  RT.graph().resetAllQuarantined();
  EXPECT_EQ(F(1), 2);
  EXPECT_EQ(RT.callDepth(), 0u);
}

TEST(FaultInjectionTest, DestroyingQuarantinedNodeCleansUp) {
  Runtime RT;
  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  {
    Maintained<int(int)> F(
        RT, [&](int X) { return X; }, EvalStrategy::Demand, "f");
    Inj.armThrow("f");
    EXPECT_THROW(F(0), InjectedFault);
    EXPECT_EQ(RT.graph().numQuarantined(), 1u);
  }
  // The instance died with its Maintained; no dangling fault records.
  EXPECT_EQ(RT.graph().numQuarantined(), 0u);
  EXPECT_EQ(RT.graph().numLiveNodes(), 0u);
  EXPECT_TRUE(RT.graph().verify().empty());
}

TEST(FaultInjectionTest, InjectorCountsHitsDeterministically) {
  Runtime RT;
  Cell<int> C(RT, 1, "c");
  Maintained<int(int)> F(
      RT, [&](int) { return C.get(); }, EvalStrategy::Eager, "f");

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armThrow("f", /*AtNthHit=*/3); // Survive two recomputes, fail the 3rd.

  EXPECT_EQ(F(0), 1); // Hit 1.
  C.set(2);
  RT.pump(); // Hit 2.
  EXPECT_EQ(F(0), 2);
  C.set(3);
  RT.pump(); // Hit 3: throws inside the drain, quarantined.
  EXPECT_EQ(Inj.hitCount("f"), 3u);
  EXPECT_EQ(Inj.firedCount(), 1u);
  EXPECT_TRUE(F.instanceNode(0)->isQuarantined());
}

TEST(FaultInjectionTest, QuarantineRecoveryUnderRepeatedFaults) {
  // A node that faults, is reset, faults again on the retry, is reset
  // again, and only then succeeds: every round must leave coherent
  // FaultInfo, statistics, and dependent values.
  Runtime RT;
  Cell<int> C(RT, 1, "c");
  Maintained<int(int)> F(
      RT, [&](int X) { return C.get() + X; }, EvalStrategy::Demand, "f");
  Maintained<int(int)> G(
      RT, [&](int X) { return F(X) * 10; }, EvalStrategy::Demand, "g");

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armThrow("f", /*AtNthHit=*/1, /*Times=*/2); // Two consecutive faults.

  // Round 1: the first execution faults; the exception cascades through
  // the in-flight dependent, quarantining both frames as it unwinds.
  EXPECT_THROW(G(5), InjectedFault);
  DepNode *NF = F.instanceNode(5);
  ASSERT_NE(NF, nullptr);
  EXPECT_TRUE(NF->isQuarantined());
  EXPECT_EQ(RT.graph().fault(*NF)->Kind, FaultKind::Exception);
  EXPECT_EQ(RT.graph().numQuarantined(), 2u);
  EXPECT_EQ(RT.stats().NodesQuarantined, 2u);
  EXPECT_TRUE(RT.graph().verify().empty());
  // Re-calling while quarantined surfaces the recorded fault instead.
  EXPECT_THROW(G(5), QuarantinedError);

  // Round 2: reset everything; the retry faults again (Times = 2). The
  // fresh FaultInfo replaces the old one and the counters keep moving.
  EXPECT_EQ(RT.graph().resetAllQuarantined(), 2u);
  EXPECT_EQ(RT.stats().QuarantineResets, 2u);
  EXPECT_THROW(G(5), InjectedFault);
  EXPECT_TRUE(NF->isQuarantined());
  EXPECT_EQ(RT.graph().fault(*NF)->Kind, FaultKind::Exception);
  EXPECT_EQ(RT.graph().numQuarantined(), 2u);
  EXPECT_EQ(RT.stats().NodesQuarantined, 4u);
  EXPECT_EQ(Inj.hitCount("f"), 2u);
  EXPECT_TRUE(RT.graph().verify().empty());

  // Round 3: reset again; the injector is exhausted, so this one sticks.
  EXPECT_EQ(RT.graph().resetAllQuarantined(), 2u);
  EXPECT_EQ(G(5), 60);
  EXPECT_EQ(F(5), 6);
  EXPECT_EQ(RT.graph().numQuarantined(), 0u);
  EXPECT_EQ(RT.stats().QuarantineResets, 4u);
  EXPECT_TRUE(RT.graph().verify().empty());

  // The recovered values track later mutations like any healthy node.
  C.set(2);
  EXPECT_EQ(G(5), 70);
}

TEST(RuntimeDeathTest, PopCallUnderflowIsFatalInReleaseBuilds) {
  Runtime RT;
  EXPECT_DEATH(RT.popCall(), "underflow");
}

/// A cell, an instance f reading it, an instance g reading f, and a
/// broken invariant between them: f is made to depend on its own
/// dependent g through the public addDependency, which lifts f's level
/// above g's on their existing up-to-date edge f -> g. Demand instances
/// are only invalidated by a drain, never re-run, so the inversion
/// survives every drain until a demand re-executes them.
struct InvertedEdge {
  explicit InvertedEdge(Runtime &RT)
      : C(RT, 1, "c"),
        F(RT, [this](int X) { return C.get() + X; }, EvalStrategy::Demand,
          "f"),
        G(RT, [this](int X) { return F(X) + 1; }, EvalStrategy::Demand,
          "g") {
    F(1);
    G(1);
    RT.graph().addDependency(*F.instanceNode(1), *G.instanceNode(1));
  }
  Cell<int> C;
  Maintained<int(int)> F;
  Maintained<int(int)> G;
};

TEST(AuditDeathTest, BrokenInvariantAbortsNextOutermostDrain) {
  DepGraph::Config Cfg;
  Cfg.Audit = true;
  EXPECT_DEATH(
      {
        Runtime RT(Cfg);
        InvertedEdge Broken(RT);
        Broken.C.set(2);
        RT.pump();
      },
      "invariant audit after drain:.*level inversion on up-to-date edge "
      "'f' -> 'g'");
}

TEST(AuditDeathTest, BrokenInvariantAbortsNextRollback) {
  DepGraph::Config Cfg;
  Cfg.Audit = true;
  EXPECT_DEATH(
      {
        Runtime RT(Cfg);
        Cell<int> C(RT, 1, "c");
        Maintained<int(int)> F(
            RT, [&](int X) { return C.get() + X; }, EvalStrategy::Demand,
            "f");
        Maintained<int(int)> G(
            RT, [&](int X) { return F(X) + 1; }, EvalStrategy::Demand, "g");
        F(1);
        G(1);
        RT.beginBatch(); // Pumps a healthy graph first.
        // Rollback restores program state only: the g -> f edge and the
        // level the misuse gave f both stay.
        RT.graph().addDependency(*F.instanceNode(1), *G.instanceNode(1));
        RT.rollbackBatch(); // No drain runs in between.
      },
      "invariant audit after rollback:.*level inversion on up-to-date edge "
      "'f' -> 'g'");
}

TEST(AuditTest, AuditOffLeavesTheFindingToVerify) {
  DepGraph::Config Cfg;
  Cfg.Audit = false;
  Runtime RT(Cfg);
  InvertedEdge Broken(RT);
  Broken.C.set(2);
  RT.pump();
  RT.beginBatch();
  RT.rollbackBatch();
  std::vector<std::string> Findings = RT.graph().verify();
  ASSERT_FALSE(Findings.empty());
  EXPECT_NE(Findings.front().find("level inversion on up-to-date edge "
                                  "'f' -> 'g'"),
            std::string::npos);
}

} // namespace
} // namespace alphonse
