//===- CancelDrillTest.cpp - Cancel-at-every-step drills ------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exhaustive cooperative-cancellation drills: build a seeded random DAG,
/// mutate it, then cancel the repair wave after every possible number of
/// evaluation steps k = 1 .. total-1. At every cut point the graph must
/// audit clean (DepGraph::verify()), every value that diverges from the
/// serial reference fixpoint must be stamped stale, and a follow-up
/// unbudgeted wave must land on exactly the reference fixpoint. Untracked
/// reads go through Maintained::peekCached so observing a half-repaired
/// graph never perturbs it.
///
//===----------------------------------------------------------------------===//

#include "core/Alphonse.h"
#include "support/Budget.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace alphonse {
namespace {

/// Deterministic 64-bit LCG (MMIX constants) so every Runtime built from
/// the same seed is bit-identical.
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 33;
  }
};

/// A seeded random DAG: NumSrcs source cells feeding NumNodes eager
/// maintained nodes, each depending on two earlier nodes (cells or
/// maintained). Values stay below 1000003 so the weighted sums never
/// overflow int.
struct DrillGraph {
  static constexpr int NumSrcs = 4;
  static constexpr int NumNodes = 20;
  static constexpr int Mod = 1000003;

  DrillGraph(Runtime &RT, uint64_t Seed) {
    Lcg Rng(Seed);
    for (int I = 0; I < NumSrcs; ++I)
      Srcs.push_back(std::make_unique<Cell<int>>(
          RT, static_cast<int>(Rng.next() % 100), "src" + std::to_string(I)));
    for (int I = 0; I < NumNodes; ++I) {
      size_t Avail = NumSrcs + Nodes.size();
      size_t A = Rng.next() % Avail;
      size_t B = Rng.next() % Avail;
      int W = static_cast<int>(Rng.next() % 7) + 1;
      std::string Name = "n";
      Name += std::to_string(I);
      Nodes.push_back(std::make_unique<Maintained<int()>>(
          RT,
          [this, A, B, W] {
            return (readDep(A) * W + readDep(B) + 1) % Mod;
          },
          EvalStrategy::Eager, std::move(Name)));
      (*Nodes.back())(); // Wire the dependencies now.
    }
  }

  /// Tracked read of dependency \p J (called from inside evaluations).
  int readDep(size_t J) {
    if (J < static_cast<size_t>(NumSrcs))
      return Srcs[J]->get();
    return (*Nodes[J - NumSrcs])();
  }

  /// Deterministic mutation round: every source moves to a value disjoint
  /// from the initial range, so every source genuinely changes.
  void mutate(int Round) {
    for (int I = 0; I < NumSrcs; ++I)
      Srcs[I]->set(1000 + Round * 97 + I * 13);
  }

  /// Untracked snapshot of every maintained node's cached value.
  std::vector<int> snapshot() const {
    std::vector<int> Out;
    for (const auto &N : Nodes) {
      const int *P = N->peekCached();
      EXPECT_NE(P, nullptr) << "every node was wired at build time";
      Out.push_back(P ? *P : 0);
    }
    return Out;
  }

  std::vector<std::unique_ptr<Cell<int>>> Srcs;
  std::vector<std::unique_ptr<Maintained<int()>>> Nodes;
};

/// The serial reference for one (Seed, Round): fixpoint values and the
/// exact number of evaluation steps the ungoverned repair wave takes.
struct Reference {
  std::vector<int> Values;
  uint64_t TotalSteps;
};

Reference computeReference(uint64_t Seed, int Round) {
  Runtime RT;
  DrillGraph G(RT, Seed);
  RT.pumpUnbounded();
  G.mutate(Round);
  uint64_t Before = RT.stats().EvalSteps.total();
  EXPECT_EQ(RT.pumpUnbounded(), WaveOutcome::Completed);
  Reference Ref;
  Ref.TotalSteps = RT.stats().EvalSteps.total() - Before;
  Ref.Values = G.snapshot();
  EXPECT_TRUE(RT.graph().verify().empty());
  return Ref;
}

void runSerialDrill(uint64_t Seed) {
  const int Round = 1;
  Reference Ref = computeReference(Seed, Round);
  ASSERT_GT(Ref.TotalSteps, 1u);

  for (uint64_t K = 1; K < Ref.TotalSteps; ++K) {
    SCOPED_TRACE("seed=" + std::to_string(Seed) + " cancel after " +
                 std::to_string(K) + "/" + std::to_string(Ref.TotalSteps) +
                 " steps");
    Runtime RT;
    DrillGraph G(RT, Seed);
    RT.pumpUnbounded();
    std::vector<int> Quiescent = G.snapshot();
    G.mutate(Round);

    ASSERT_EQ(RT.pump(WaveBudget::steps(K)), WaveOutcome::DegradedSteps);
    // Invariant 1: a cancelled wave leaves no torn state — the audit that
    // checks edge symmetry, level ordering, and pending-set membership
    // passes at every cut point.
    EXPECT_TRUE(RT.graph().verify().empty());
    EXPECT_GT(RT.graph().numPending(), 0u);

    // Invariant 2: any value that has not reached its fixpoint is
    // visibly stale (it may only be the last-quiescent or an
    // intermediate consistent value, never garbage).
    std::vector<int> Cut = G.snapshot();
    for (int J = 0; J < DrillGraph::NumNodes; ++J) {
      if (Cut[J] != Ref.Values[J]) {
        EXPECT_TRUE(G.Nodes[J]->isStale())
            << "node " << J << " diverges from the fixpoint (" << Cut[J]
            << " != " << Ref.Values[J] << ") but is not marked stale";
      }
    }
    (void)Quiescent;

    // Invariant 3: recovery is exact — the follow-up unbudgeted wave
    // reaches precisely the serial reference fixpoint.
    EXPECT_EQ(RT.pumpUnbounded(), WaveOutcome::Completed);
    EXPECT_EQ(RT.graph().numPending(), 0u);
    EXPECT_EQ(RT.graph().governor().staleCount(), 0u);
    EXPECT_TRUE(RT.graph().verify().empty());
    EXPECT_EQ(G.snapshot(), Ref.Values);
  }

  // Above the total the wave completes within budget.
  Runtime RT;
  DrillGraph G(RT, Seed);
  RT.pumpUnbounded();
  G.mutate(Round);
  EXPECT_EQ(RT.pump(WaveBudget::steps(Ref.TotalSteps + 8)),
            WaveOutcome::Completed);
  EXPECT_EQ(G.snapshot(), Ref.Values);
}

TEST(CancelDrillTest, SerialCancelAtEveryStepSeedA) { runSerialDrill(17); }
TEST(CancelDrillTest, SerialCancelAtEveryStepSeedB) { runSerialDrill(9001); }
TEST(CancelDrillTest, SerialCancelAtEveryStepSeedC) { runSerialDrill(424242); }

/// Multi-partition variant: four independent 10-stage chains, so four
/// partitions hold pending work when a budget cuts the wave at an
/// arbitrary point. Every cut must audit clean, and recovery must be
/// exact.
TEST(CancelDrillTest, ParallelCancelDrillRecoversExactly) {
  Runtime RT;

  constexpr int Chains = 4, Stages = 10;
  std::vector<std::unique_ptr<Cell<int>>> Srcs;
  std::vector<std::unique_ptr<Maintained<int()>>> Nodes;
  for (int C = 0; C < Chains; ++C) {
    Srcs.push_back(std::make_unique<Cell<int>>(RT, 0, "p.src"));
    for (int S = 0; S < Stages; ++S) {
      Cell<int> *Src = Srcs.back().get();
      Maintained<int()> *Prev = S == 0 ? nullptr : Nodes.back().get();
      Nodes.push_back(std::make_unique<Maintained<int()>>(
          RT, [Src, Prev] { return (Prev ? (*Prev)() : Src->get()) + 1; },
          EvalStrategy::Eager, "p.n"));
      (*Nodes.back())();
    }
  }
  RT.pumpUnbounded();

  Lcg Rng(7);
  for (int Round = 1; Round <= 12; ++Round) {
    for (int C = 0; C < Chains; ++C)
      Srcs[C]->set(Round * 100 + C);
    uint64_t K = Rng.next() % (Chains * Stages + 4) + 1;
    WaveOutcome O = RT.pump(WaveBudget::steps(K));
    EXPECT_TRUE(O == WaveOutcome::DegradedSteps || O == WaveOutcome::Completed)
        << "round " << Round << " budget " << K;
    EXPECT_TRUE(RT.graph().verify().empty())
        << "cancelled wave left torn state (round " << Round << ")";

    EXPECT_EQ(RT.pumpUnbounded(), WaveOutcome::Completed);
    EXPECT_TRUE(RT.graph().verify().empty());
    EXPECT_EQ(RT.graph().numPending(), 0u);
    EXPECT_FALSE(RT.degraded());
    for (int C = 0; C < Chains; ++C) {
      const int *Tail = Nodes[C * Stages + Stages - 1]->peekCached();
      ASSERT_NE(Tail, nullptr);
      EXPECT_EQ(*Tail, Round * 100 + C + Stages)
          << "chain " << C << " missed its fixpoint after recovery";
    }
  }
}

} // namespace
} // namespace alphonse
