//===- GovernorTest.cpp - Resource-governed propagation tests -------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resource governor (DESIGN.md Section 11): budgeted waves degrade
/// instead of failing. A cancelled wave must leave the graph verifiably
/// intact, park its residue resumably, stamp the unrepaired cone stale,
/// and a later unbudgeted pump must reach the exact state an ungoverned
/// run would have. Deadlines are tested on the virtual clock (a Tick
/// fault on "gov.tick" advances time at evaluation boundaries), so no
/// test sleeps or races the wall clock.
///
//===----------------------------------------------------------------------===//

#include "core/Alphonse.h"
#include "support/Budget.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace alphonse {
namespace {

/// A linear chain: Src -> S0 -> S1 -> ... -> S(N-1), each eager stage
/// adding 1, so the final value is Src + N and a full propagation takes a
/// step per node. The whole chain is one partition.
struct Chain {
  Chain(Runtime &RT, int Stages) : Src(RT, 0, "src") {
    for (int I = 0; I < Stages; ++I) {
      Cell<int> *S = &Src;
      Maintained<int()> *Prev =
          Stage.empty() ? nullptr : Stage.back().get();
      std::string Name = "s";
      Name += std::to_string(I);
      Stage.push_back(std::make_unique<Maintained<int()>>(
          RT,
          [S, Prev] { return (Prev ? (*Prev)() : S->get()) + 1; },
          EvalStrategy::Eager, std::move(Name)));
      (*Stage.back())(); // Wire the dependency now.
    }
  }

  int last() { return (*Stage.back())(); }
  const int *peekLast() const { return Stage.back()->peekCached(); }

  Cell<int> Src;
  std::vector<std::unique_ptr<Maintained<int()>>> Stage;
};

TEST(GovernorTest, UnlimitedBudgetIsCompletedAndNeverDegrades) {
  Runtime RT;
  Chain C(RT, 8);
  C.Src.set(5);
  EXPECT_EQ(RT.pump(WaveBudget()), WaveOutcome::Completed);
  EXPECT_FALSE(RT.degraded());
  EXPECT_EQ(C.last(), 5 + 8);
  EXPECT_EQ(RT.stats().GovWavesDegraded.total(), 0u);
}

TEST(GovernorTest, StepBudgetParksResidueStampsStaleAndRecovers) {
  Runtime RT;
  Chain C(RT, 16);
  RT.pumpUnbounded();
  ASSERT_EQ(C.last(), 16);

  C.Src.set(100);
  WaveOutcome O = RT.pump(WaveBudget::steps(3));
  EXPECT_EQ(O, WaveOutcome::DegradedSteps);
  EXPECT_TRUE(waveDegraded(O));
  EXPECT_TRUE(RT.degraded());
  EXPECT_GT(RT.graph().numPending(), 0u) << "residue must stay parked";
  EXPECT_GE(RT.stats().GovStepBudgetHits.total(), 1u);

  // A cancelled wave is cooperative: it stopped at an evaluation
  // boundary, so the graph audits clean.
  EXPECT_TRUE(RT.graph().verify().empty());

  // The unrepaired cone is stamped stale; its cached values are the
  // last-quiescent ones.
  EXPECT_GT(RT.graph().governor().staleCount(), 0u);
  EXPECT_TRUE(C.Stage.back()->isStale());
  ASSERT_NE(C.peekLast(), nullptr);
  EXPECT_EQ(*C.peekLast(), 16) << "stale read serves the last-quiescent value";

  // Any later unbudgeted pump finishes the parked work exactly.
  EXPECT_EQ(RT.pumpUnbounded(), RT.pump(WaveBudget())); // Both Completed.
  EXPECT_FALSE(RT.degraded());
  EXPECT_EQ(RT.graph().numPending(), 0u);
  EXPECT_EQ(RT.graph().governor().staleCount(), 0u);
  EXPECT_FALSE(C.Stage.back()->isStale());
  EXPECT_EQ(C.last(), 100 + 16);
  EXPECT_TRUE(RT.graph().verify().empty());
}

TEST(GovernorTest, DeadlineOnVirtualClockCancelsAtExactBoundary) {
  GovClock::VirtualScope Virtual;
  FaultInjector Inj;
  // Every evaluation boundary advances virtual time by 100us.
  Inj.armTick("gov.tick", 100);
  FaultInjector::Scope Armed(Inj);

  Runtime RT;
  Chain C(RT, 32);
  RT.pumpUnbounded();

  C.Src.set(7);
  uint64_t StepsBefore = RT.stats().EvalSteps.total();
  // Deadline 350us: boundaries see t=100, 200, 300 (ok) then t=400
  // (expired). Exactly 3 nodes are processed — the deadline is honored
  // within one evaluation-step granularity.
  WaveOutcome O = RT.pump(WaveBudget::deadline(350));
  EXPECT_EQ(O, WaveOutcome::DegradedDeadline);
  EXPECT_EQ(RT.stats().EvalSteps.total() - StepsBefore, 3u);
  EXPECT_GE(RT.stats().GovDeadlineExpired.total(), 1u);
  EXPECT_TRUE(RT.graph().verify().empty());
  EXPECT_TRUE(RT.degraded());

  // Recovery is exact.
  EXPECT_EQ(RT.pumpUnbounded(), WaveOutcome::Completed);
  EXPECT_EQ(C.last(), 7 + 32);
  EXPECT_FALSE(RT.degraded());
}

TEST(GovernorTest, MemoryCeilingCancelsBeforeAnyStep) {
  Runtime RT;
  Chain C(RT, 8);
  RT.pumpUnbounded();
  C.Src.set(9);
  WaveBudget B;
  B.MemCeilingBytes = 1; // Any real graph exceeds one byte of slab.
  uint64_t StepsBefore = RT.stats().EvalSteps.total();
  EXPECT_EQ(RT.pump(B), WaveOutcome::DegradedMemory);
  EXPECT_EQ(RT.stats().EvalSteps.total(), StepsBefore)
      << "the ceiling was already exceeded; no step may run";
  EXPECT_GE(RT.stats().GovMemCeilingHits.total(), 1u);
  EXPECT_TRUE(RT.graph().verify().empty());
  RT.pumpUnbounded();
  EXPECT_EQ(C.last(), 9 + 8);
}

TEST(GovernorTest, OverloadPolicyDefersOrShedsOverParkedResidue) {
  Runtime RT;
  Chain C(RT, 16);
  RT.pumpUnbounded();
  C.Src.set(3);
  ASSERT_EQ(RT.pump(WaveBudget::steps(2)), WaveOutcome::DegradedSteps);
  size_t Parked = RT.graph().numPending();
  ASSERT_GT(Parked, 0u);

  // Defer: the wave is skipped entirely while residue is parked.
  WaveBudget Defer = WaveBudget::steps(2);
  Defer.Policy = OverloadPolicy::Defer;
  EXPECT_EQ(RT.pump(Defer), WaveOutcome::Deferred);
  EXPECT_EQ(RT.graph().numPending(), Parked) << "a deferred wave runs nothing";
  EXPECT_EQ(RT.stats().GovWavesDeferred.total(), 1u);

  WaveBudget Shed = WaveBudget::steps(2);
  Shed.Policy = OverloadPolicy::Shed;
  EXPECT_EQ(RT.pump(Shed), WaveOutcome::Shed);
  EXPECT_EQ(RT.stats().GovWavesShed.total(), 1u);

  // Accept (the default) always runs; an unbudgeted pump always drains —
  // that is the guaranteed path out of overload.
  EXPECT_EQ(RT.pumpUnbounded(), WaveOutcome::Completed);
  EXPECT_EQ(C.last(), 3 + 16);

  // With no parked residue, Defer admits normally.
  C.Src.set(4);
  WaveBudget BigDefer = WaveBudget::steps(1000);
  BigDefer.Policy = OverloadPolicy::Defer;
  EXPECT_EQ(RT.pump(BigDefer), WaveOutcome::Completed);
  EXPECT_EQ(C.last(), 4 + 16);
}

TEST(GovernorTest, WatchdogQuarantinesRepeatDeadlineBlower) {
  GovClock::VirtualScope Virtual;
  FaultInjector Inj;
  // Each execution of "slow" consumes 1000us of virtual time — twice the
  // wave deadline by itself.
  Inj.armTick("slow", 1000, /*AtNthHit=*/1, /*Times=*/UINT64_MAX);
  FaultInjector::Scope Armed(Inj);

  DepGraph::Config Cfg;
  Cfg.WatchdogTrips = 2;
  Runtime RT(Cfg);
  Cell<int> Src(RT, 0, "src");
  Maintained<int()> Slow(
      RT, [&] { return Src.get() * 2; }, EvalStrategy::Eager, "slow");
  Slow(); // Wire (direct call: the watchdog only times wave evaluations).

  // The slow node is the wave's final work item, so the wave itself may
  // still complete — the watchdog records the per-node blow regardless.
  Src.set(1);
  RT.pump(WaveBudget::deadline(500));
  EXPECT_EQ(RT.stats().GovDeadlineBlows.total(), 1u);
  EXPECT_EQ(RT.graph().numQuarantined(), 0u) << "one strike is not enough";

  Src.set(2);
  RT.pump(WaveBudget::deadline(500));
  EXPECT_EQ(RT.stats().GovDeadlineBlows.total(), 2u);
  ASSERT_EQ(RT.graph().numQuarantined(), 1u);
  EXPECT_EQ(RT.stats().GovWatchdogQuarantines.total(), 1u);
  DepNode *N = Slow.instanceNode();
  ASSERT_NE(N, nullptr);
  ASSERT_TRUE(N->isQuarantined());
  const FaultInfo *FI = RT.graph().fault(*N);
  ASSERT_NE(FI, nullptr);
  EXPECT_EQ(FI->Kind, FaultKind::Deadline);
  EXPECT_TRUE(RT.graph().verify().empty());

  // Quarantine is recoverable as usual.
  EXPECT_TRUE(RT.graph().resetQuarantined(*N));
  Inj.disarm("slow");
  RT.pumpUnbounded();
  EXPECT_EQ(Slow(), 4);
}

TEST(GovernorTest, BudgetExhaustionInsideCommitAbortsAndRollsBack) {
  Runtime RT;
  Chain C(RT, 16);
  RT.pumpUnbounded();
  ASSERT_EQ(C.last(), 16);

  // Every un-annotated pump — including the commit propagation — runs
  // under the default budget from here on.
  RT.setDefaultBudget(WaveBudget::steps(3));

  RT.beginBatch(); // Pre-pump is unbounded by contract.
  C.Src.set(50);
  EXPECT_FALSE(RT.commitBatch())
      << "a budget exhausted mid-commit must abort the batch";
  const FaultInfo *FI = RT.graph().abortFault();
  ASSERT_NE(FI, nullptr);
  EXPECT_EQ(FI->Kind, FaultKind::Deadline);

  // Rolled back to the pre-batch program state: no stale values, no
  // parked residue, the old value everywhere.
  EXPECT_FALSE(RT.degraded());
  EXPECT_EQ(C.Src.peek(), 0);
  EXPECT_TRUE(RT.graph().verify().empty());
  EXPECT_EQ(C.last(), 16);

  // With the budget lifted the same batch commits.
  RT.setDefaultBudget(WaveBudget());
  RT.beginBatch();
  C.Src.set(50);
  EXPECT_TRUE(RT.commitBatch());
  EXPECT_EQ(C.last(), 50 + 16);
}

TEST(GovernorTest, CellIsStaleTracksTheUnrepairedCone) {
  Runtime RT;
  Chain C(RT, 8);
  RT.pumpUnbounded();

  C.Src.set(11);
  // One step: the source cell refreshes, the first stage stays parked.
  ASSERT_EQ(RT.pump(WaveBudget::steps(1)), WaveOutcome::DegradedSteps);
  EXPECT_FALSE(C.Src.isStale())
      << "the refreshed source itself was repaired before cancellation";
  EXPECT_TRUE(C.Stage.front()->isStale());
  EXPECT_TRUE(C.Stage.back()->isStale()) << "staleness covers the whole cone";

  RT.pumpUnbounded();
  EXPECT_FALSE(C.Stage.front()->isStale());
  EXPECT_FALSE(C.Stage.back()->isStale());
  EXPECT_EQ(C.last(), 11 + 8);
}

TEST(GovernorTest, GovernedParallelWaveParksAndRecovers) {
  Runtime RT;
  // Four independent chains: four partitions with pending work, so a
  // budget cuts the wave with residue parked in several of them.
  std::vector<std::unique_ptr<Chain>> Chains;
  for (int I = 0; I < 4; ++I)
    Chains.push_back(std::make_unique<Chain>(RT, 12));
  RT.pumpUnbounded();

  for (int Round = 0; Round < 6; ++Round) {
    for (auto &C : Chains)
      C->Src.set(Round * 10);
    WaveOutcome O = RT.pump(WaveBudget::steps(5));
    EXPECT_TRUE(O == WaveOutcome::DegradedSteps ||
                O == WaveOutcome::Completed);
    EXPECT_TRUE(RT.graph().verify().empty())
        << "a cancelled wave must leave no torn state";
    EXPECT_EQ(RT.pumpUnbounded(), WaveOutcome::Completed);
    EXPECT_TRUE(RT.graph().verify().empty());
    for (auto &C : Chains)
      EXPECT_EQ(C->last(), Round * 10 + 12);
    EXPECT_FALSE(RT.degraded());
  }
}

} // namespace
} // namespace alphonse
