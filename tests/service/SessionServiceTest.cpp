//===- SessionServiceTest.cpp - Multi-session service tests ---------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the session service (DESIGN.md "Session service"). The
/// load-bearing one is the randomized isolation sweep: N sessions with
/// session-salted spreadsheet formulas mutate concurrently under small
/// budgets with fault injection armed, across worker counts {0, 2, 8},
/// and every session must end exactly at its own per-session model —
/// any cross-session leak (a value, a stat, a call-stack frame) shows up
/// as a wrong salted value or a verify() finding in some session.
///
//===----------------------------------------------------------------------===//

#include "core/Alphonse.h"
#include "service/LatencyHistogram.h"
#include "service/SessionManager.h"
#include "spreadsheet/Spreadsheet.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace alphonse {
namespace {

using spreadsheet::Spreadsheet;

/// Session-salted 2x2 sheet: (0,0) and (1,0) are literals, (0,1) and
/// (1,1) derive from them with a per-session salt, so a session that ever
/// observed a sibling's cells would land off its own model by a
/// salt-sized margin.
int saltOf(size_t I) { return static_cast<int>(1000 * (I + 1)); }

void buildSheet(Session &S, size_t I) {
  Spreadsheet &Sheet = S.emplaceProgram<Spreadsheet>(S.runtime(), 2, 2);
  Sheet.setLiteral(0, 0, static_cast<int>(I));
  Sheet.setLiteral(1, 0, static_cast<int>(I) + 1);
  ASSERT_TRUE(
      Sheet.setFormula(0, 1, "cell(0,0) * 2 + " + std::to_string(saltOf(I))));
  ASSERT_TRUE(Sheet.setFormula(1, 1, "cell(0,1) + cell(1,0)"));
  // Materialize the maintained cell values (they bind their dependency
  // cones on first call); later literal edits then have real incremental
  // propagation for the service to drain.
  Sheet.value(0, 1);
  Sheet.value(1, 1);
}

/// One randomized service run; returns every session's derived values so
/// callers can compare across worker counts.
std::vector<std::array<int, 2>> runRandomizedScenario(unsigned Workers,
                                                      uint64_t Seed,
                                                      bool WithFaults) {
  ServiceConfig C;
  C.Workers = Workers;
  C.SessionBudget = WaveBudget::steps(64); // Small: waves degrade and resume.
  SessionManager M(C);

  constexpr size_t N = 12;
  std::vector<Session::Id> Ids;
  std::vector<std::array<int, 2>> Model(N);
  for (size_t I = 0; I < N; ++I) {
    Session &S = M.open();
    Ids.push_back(S.id());
    buildSheet(S, I);
    Model[I] = {static_cast<int>(I), static_cast<int>(I) + 1};
    M.markDirty(S);
  }

  FaultInjector Inj;
  std::unique_ptr<FaultInjector::Scope> Active;
  if (WithFaults) {
    Active = std::make_unique<FaultInjector::Scope>(Inj);
    // Every 7th cell recompute throws, three times total: some sessions
    // quarantine mid-run and must be repaired without disturbing others.
    Inj.armThrow("Sheet.value", 7, 3);
  }

  std::mt19937_64 Rng(Seed);
  for (int Round = 0; Round < 24; ++Round) {
    int Edits = 1 + static_cast<int>(Rng() % 6);
    for (int E = 0; E < Edits; ++E) {
      size_t I = Rng() % N;
      int Row = static_cast<int>(Rng() % 2);
      int V = static_cast<int>(Rng() % 100);
      EXPECT_TRUE(M.mutate(Ids[I], [&](Session &S) {
        S.program<Spreadsheet>()->setLiteral(Row, 0, V);
      }));
      Model[I][Row] = V;
    }
    M.drainCycle();
  }

  // Repair and catch up: disarm the injector, return quarantined cells to
  // service, then drain everything unbounded.
  if (WithFaults) {
    Inj.disarm("Sheet.value");
    for (Session::Id Id : Ids) {
      Session *S = M.find(Id);
      if (S->runtime().graph().resetAllQuarantined() > 0)
        M.markDirty(*S);
    }
  }
  M.drainAll();

  std::vector<std::array<int, 2>> Got(N);
  for (size_t I = 0; I < N; ++I) {
    Session *S = M.find(Ids[I]);
    Spreadsheet *Sheet = S->program<Spreadsheet>();
    EXPECT_TRUE(S->runtime().graph().verify().empty())
        << "session " << I << " failed its graph audit";
    EXPECT_FALSE(S->runtime().degraded())
        << "session " << I << " still degraded after drainAll";
    EXPECT_FALSE(S->dirty());
    int V01 = Sheet->value(0, 1);
    int V11 = Sheet->value(1, 1);
    EXPECT_EQ(V01, 2 * Model[I][0] + saltOf(I)) << "session " << I;
    EXPECT_EQ(V11, V01 + Model[I][1]) << "session " << I;
    Got[I] = {V01, V11};
  }
  EXPECT_EQ(M.stats().openSessions(), N);
  EXPECT_GE(M.stats().WavesAdmitted.total(), N);
  return Got;
}

TEST(SessionServiceTest, RandomizedIsolationAcrossWorkerCounts) {
  for (uint64_t Seed : {7ull, 1234ull}) {
    std::vector<std::array<int, 2>> Serial =
        runRandomizedScenario(0, Seed, /*WithFaults=*/false);
    for (unsigned Workers : {2u, 8u}) {
      std::vector<std::array<int, 2>> Par =
          runRandomizedScenario(Workers, Seed, /*WithFaults=*/false);
      EXPECT_EQ(Par, Serial) << "Workers=" << Workers << " Seed=" << Seed;
    }
  }
}

TEST(SessionServiceTest, RandomizedIsolationUnderFaultInjection) {
  for (unsigned Workers : {0u, 4u}) {
    std::vector<std::array<int, 2>> Got =
        runRandomizedScenario(Workers, 99, /*WithFaults=*/true);
    (void)Got; // Per-session assertions live inside the scenario.
  }
}

TEST(SessionServiceTest, SessionLifecycle) {
  SessionManager M;
  Session &A = M.open();
  Session &B = M.open();
  EXPECT_NE(A.id(), B.id());
  EXPECT_EQ(M.openSessions(), 2u);
  EXPECT_EQ(M.find(A.id()), &A);
  EXPECT_EQ(M.find(12345), nullptr);

  // Closing a queued session removes it from the dirty queue too. The
  // id must be captured first: close() destroys the Session object.
  Session::Id Bid = B.id();
  M.markDirty(B);
  EXPECT_EQ(M.queueDepth(), 1u);
  EXPECT_TRUE(M.close(Bid));
  EXPECT_EQ(M.queueDepth(), 0u);
  EXPECT_FALSE(M.close(Bid));
  EXPECT_EQ(M.openSessions(), 1u);
  EXPECT_EQ(M.stats().openSessions(), 1u);
}

TEST(SessionServiceTest, DeferPolicyParksThenDrainAllCatchesUp) {
  ServiceConfig C;
  C.Workers = 2;
  C.SessionBudget = WaveBudget::steps(1);
  C.SessionBudget.Policy = OverloadPolicy::Defer;
  SessionManager M(C);

  constexpr size_t N = 3;
  std::vector<Session::Id> Ids;
  for (size_t I = 0; I < N; ++I) {
    Session &S = M.open();
    Ids.push_back(S.id());
    buildSheet(S, I);
  }
  // Edit the root literal of each sheet: (0,0) feeds (0,1) feeds (1,1),
  // several propagation steps against a one-step budget.
  for (size_t I = 0; I < N; ++I)
    M.mutate(Ids[I], [&](Session &S) {
      S.program<Spreadsheet>()->setLiteral(0, 0, 100 + static_cast<int>(I));
    });

  // First cycle: no parked backlog yet, so the waves run — and the
  // one-step budget cancels them. Degraded sessions re-queue.
  EXPECT_EQ(M.drainCycle(), 0u);
  EXPECT_GE(M.stats().WavesDegraded.total(), N);
  EXPECT_EQ(M.queueDepth(), N);

  // Second cycle: every session now starts against its own parked
  // residue, and Defer skips the wave. Deferred sessions are parked
  // dirty, not re-queued (a budgeted cycle can never clear them).
  EXPECT_EQ(M.drainCycle(), 0u);
  EXPECT_GE(M.stats().WavesDeferred.total(), N);
  EXPECT_EQ(M.queueDepth(), 0u);
  for (Session::Id Id : Ids)
    EXPECT_TRUE(M.find(Id)->dirty());

  // Catch-up drains unbounded and clears the degradation.
  EXPECT_EQ(M.drainAll(), N);
  for (size_t I = 0; I < N; ++I) {
    Session *S = M.find(Ids[I]);
    EXPECT_FALSE(S->dirty());
    EXPECT_FALSE(S->runtime().degraded());
    EXPECT_EQ(S->program<Spreadsheet>()->value(0, 1),
              2 * (100 + static_cast<int>(I)) + saltOf(I));
  }
}

TEST(SessionServiceTest, QueueDepthCapSheds) {
  ServiceConfig C;
  C.Workers = 0;
  C.MaxQueueDepth = 2;
  SessionManager M(C);

  constexpr size_t N = 5;
  std::vector<Session::Id> Ids;
  for (size_t I = 0; I < N; ++I) {
    Session &S = M.open();
    Ids.push_back(S.id());
    buildSheet(S, I);
    M.markDirty(S);
  }
  EXPECT_EQ(M.queueDepth(), 2u);
  EXPECT_EQ(M.stats().WavesShed.total(), N - 2);
  EXPECT_EQ(M.stats().QueuePeak.total(), 2u);

  // The shed sessions stay dirty; drainAll ignores the cap and catches
  // everyone up.
  EXPECT_EQ(M.drainAll(), N);
  for (size_t I = 0; I < N; ++I) {
    Session *S = M.find(Ids[I]);
    EXPECT_FALSE(S->dirty());
    EXPECT_EQ(S->program<Spreadsheet>()->value(0, 1),
              2 * static_cast<int>(I) + saltOf(I));
  }
}

TEST(SessionServiceTest, TwoManagersCoexist) {
  // Two live services with full-width pools, each draining its own
  // sessions, interleaved.
  ServiceConfig C;
  C.Workers = 4;
  SessionManager M1(C);
  SessionManager M2(C);

  std::vector<Session::Id> Ids1, Ids2;
  for (size_t I = 0; I < 6; ++I) {
    Session &S1 = M1.open();
    Ids1.push_back(S1.id());
    buildSheet(S1, I);
    M1.markDirty(S1);
    Session &S2 = M2.open();
    Ids2.push_back(S2.id());
    buildSheet(S2, I + 100);
    M2.markDirty(S2);
  }
  M1.drainCycle();
  M2.drainCycle();
  for (size_t I = 0; I < 6; ++I) {
    EXPECT_EQ(M1.find(Ids1[I])->program<Spreadsheet>()->value(0, 1),
              2 * static_cast<int>(I) + saltOf(I));
    EXPECT_EQ(M2.find(Ids2[I])->program<Spreadsheet>()->value(0, 1),
              2 * (static_cast<int>(I) + 100) + saltOf(I + 100));
  }
  EXPECT_EQ(M1.stats().WavesAdmitted.total(), 6u);
  EXPECT_EQ(M2.stats().WavesAdmitted.total(), 6u);
}

TEST(SessionServiceTest, ServiceStatsPrintAndLatency) {
  ServiceConfig C;
  C.Workers = 2;
  SessionManager M(C);
  for (size_t I = 0; I < 4; ++I) {
    Session &S = M.open();
    buildSheet(S, I);
    M.markDirty(S);
  }
  EXPECT_EQ(M.drainCycle(), 4u);
  EXPECT_EQ(M.stats().WaveLatency.count(), 4u);
  EXPECT_LE(M.stats().WaveLatency.quantileUs(0.5),
            M.stats().WaveLatency.quantileUs(0.99));

  std::ostringstream OS;
  OS << M.stats();
  EXPECT_NE(OS.str().find("svc.waves_admitted   4"), std::string::npos);
  EXPECT_NE(OS.str().find("svc.wave_p99_us"), std::string::npos);
}

/// A session program whose graph breaks an invariant on purpose: the
/// instance f is made to depend on its own dependent g, which lifts f's
/// level above g's on their existing edge f -> g.
struct InvertedEdgeProgram {
  explicit InvertedEdgeProgram(Runtime &RT)
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

TEST(SessionServiceDeathTest, DefaultConfigHonoursTheAuditSwitch) {
  // The audit default is read once per process, so the child re-executes
  // the binary and reads the switch set here afresh.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const char *Was = std::getenv("ALPHONSE_AUDIT");
  std::string Saved = Was ? Was : "";
  setenv("ALPHONSE_AUDIT", "1", 1);
  EXPECT_DEATH(
      {
        SessionManager M{ServiceConfig()};
        Session &S = M.open();
        S.emplaceProgram<InvertedEdgeProgram>(S.runtime());
        M.mutate(S.id(), [](Session &Sn) {
          Sn.program<InvertedEdgeProgram>()->C.set(2);
        });
        M.drainCycle();
      },
      "invariant audit after drain:.*level inversion on up-to-date edge");
  if (Was)
    setenv("ALPHONSE_AUDIT", Saved.c_str(), 1);
  else
    unsetenv("ALPHONSE_AUDIT");
}

TEST(LatencyHistogramTest, QuantilesBoundedByBucketError) {
  LatencyHistogram H;
  for (uint64_t V = 1; V <= 1000; ++V)
    H.record(V);
  EXPECT_EQ(H.count(), 1000u);
  EXPECT_EQ(H.maxUs(), 1000u);
  // Log-linear buckets: quantiles are bucket upper bounds, within ~6.25%
  // above the exact rank value.
  uint64_t P50 = H.quantileUs(0.50);
  uint64_t P99 = H.quantileUs(0.99);
  uint64_t P999 = H.quantileUs(0.999);
  EXPECT_GE(P50, 500u);
  EXPECT_LE(P50, 532u);
  EXPECT_GE(P99, 990u);
  EXPECT_LE(P99, 1055u);
  EXPECT_GE(P999, P99);
  EXPECT_LE(H.quantileUs(1.0), 1088u);
  // Tiny values get exact unit buckets.
  LatencyHistogram Small;
  Small.record(3);
  EXPECT_EQ(Small.quantileUs(0.5), 3u);
}

} // namespace
} // namespace alphonse
