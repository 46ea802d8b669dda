//===- SpreadsheetTest.cpp - Spreadsheet tests ----------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the Section 7.2 spreadsheet: cell formulas, cross-cell references
/// (Algorithm 10's CellExp), incremental recalculation, dependency chains,
/// cycles, and randomized equivalence with the exhaustive oracle.
///
//===----------------------------------------------------------------------===//

#include "spreadsheet/Spreadsheet.h"
#include "support/CheckpointIO.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <random>

namespace alphonse::spreadsheet {
namespace {

TEST(SpreadsheetTest, EmptyCellsAreZero) {
  Runtime RT;
  Spreadsheet S(RT, 3, 3);
  EXPECT_EQ(S.value(0, 0), 0);
  EXPECT_EQ(S.value(2, 2), 0);
}

TEST(SpreadsheetTest, LiteralAndArithmetic) {
  Runtime RT;
  Spreadsheet S(RT, 2, 2);
  ASSERT_TRUE(S.setFormula(0, 0, "21 * 2"));
  EXPECT_EQ(S.value(0, 0), 42);
}

TEST(SpreadsheetTest, CrossCellReference) {
  Runtime RT;
  Spreadsheet S(RT, 2, 2);
  ASSERT_TRUE(S.setFormula(0, 0, "7"));
  ASSERT_TRUE(S.setFormula(0, 1, "cell(0,0) * 3"));
  EXPECT_EQ(S.value(0, 1), 21);
}

TEST(SpreadsheetTest, EditPropagatesThroughReferences) {
  Runtime RT;
  Spreadsheet S(RT, 2, 2);
  S.setFormula(0, 0, "7");
  S.setFormula(0, 1, "cell(0,0) * 3");
  S.setFormula(1, 0, "cell(0,1) + 1");
  EXPECT_EQ(S.value(1, 0), 22);
  S.setLiteral(0, 0, 10);
  EXPECT_EQ(S.value(1, 0), 31);
  EXPECT_EQ(S.value(0, 1), 30);
}

TEST(SpreadsheetTest, UnrelatedCellsStayCached) {
  Runtime RT;
  Spreadsheet S(RT, 4, 4);
  S.setFormula(0, 0, "1");
  S.setFormula(0, 1, "cell(0,0) + 1");
  S.setFormula(3, 3, "1000");
  S.setFormula(3, 2, "cell(3,3) + 1");
  EXPECT_EQ(S.value(0, 1), 2);
  EXPECT_EQ(S.value(3, 2), 1001);
  RT.resetStats();
  S.setLiteral(0, 0, 5);
  EXPECT_EQ(S.value(3, 2), 1001); // Untouched chain: no re-execution...
  EXPECT_EQ(RT.stats().ProcExecutions, 0u);
  EXPECT_EQ(S.value(0, 1), 6); // ...while the edited chain updates.
  EXPECT_GT(RT.stats().ProcExecutions, 0u);
}

TEST(SpreadsheetTest, FormulaReplacementInvalidates) {
  Runtime RT;
  Spreadsheet S(RT, 2, 2);
  S.setFormula(0, 0, "1 + 1");
  EXPECT_EQ(S.value(0, 0), 2);
  S.setFormula(0, 0, "let x = 5 in x * x ni");
  EXPECT_EQ(S.value(0, 0), 25);
}

TEST(SpreadsheetTest, ClearCellInvalidatesDependents) {
  Runtime RT;
  Spreadsheet S(RT, 2, 2);
  S.setFormula(0, 0, "9");
  S.setFormula(0, 1, "cell(0,0) + 1");
  EXPECT_EQ(S.value(0, 1), 10);
  S.clearCell(0, 0);
  EXPECT_EQ(S.value(0, 1), 1);
}

TEST(SpreadsheetTest, ParseErrorKeepsOldFormula) {
  Runtime RT;
  Spreadsheet S(RT, 2, 2);
  S.setFormula(0, 0, "5");
  EXPECT_FALSE(S.setFormula(0, 0, "5 +"));
  EXPECT_TRUE(S.diagnostics().hasErrors());
  EXPECT_EQ(S.value(0, 0), 5);
}

TEST(SpreadsheetTest, OutOfRangeCellRefIsAnError) {
  Runtime RT;
  Spreadsheet S(RT, 2, 2);
  EXPECT_FALSE(S.setFormula(0, 0, "cell(5,5)"));
  EXPECT_TRUE(S.diagnostics().hasErrors());
}

TEST(SpreadsheetTest, DirectCycleEvaluatesToZeroWithFlag) {
  Runtime RT;
  Spreadsheet S(RT, 2, 2);
  S.setFormula(0, 0, "cell(0,0) + 1");
  EXPECT_EQ(S.value(0, 0), 1); // Inner reference sees 0.
  EXPECT_TRUE(S.cycleDetected());
}

TEST(SpreadsheetTest, MutualCycleDetected) {
  Runtime RT;
  Spreadsheet S(RT, 2, 2);
  S.setFormula(0, 0, "cell(0,1)");
  S.setFormula(0, 1, "cell(0,0)");
  S.value(0, 0);
  EXPECT_TRUE(S.cycleDetected());
  // Breaking the cycle clears things up.
  S.clearCycleFlag();
  S.setFormula(0, 1, "8");
  EXPECT_EQ(S.value(0, 0), 8);
  EXPECT_FALSE(S.cycleDetected());
}

TEST(SpreadsheetTest, LetFormulasWork) {
  Runtime RT;
  Spreadsheet S(RT, 2, 2);
  S.setFormula(1, 1, "6");
  S.setFormula(0, 0, "let x = cell(1,1) in x * x + x ni");
  EXPECT_EQ(S.value(0, 0), 42);
  S.setLiteral(1, 1, 2);
  EXPECT_EQ(S.value(0, 0), 6);
}

TEST(SpreadsheetTest, RunningTotalsColumn) {
  // A classic sheet: column 1 keeps running totals of column 0.
  Runtime RT;
  constexpr int N = 16;
  Spreadsheet S(RT, N, 2);
  S.setFormula(0, 1, "cell(0,0)");
  for (int R = 0; R < N; ++R) {
    S.setLiteral(R, 0, R + 1);
    if (R > 0)
      S.setFormula(R, 1,
                   "cell(" + std::to_string(R - 1) + ",1) + cell(" +
                       std::to_string(R) + ",0)");
  }
  EXPECT_EQ(S.value(N - 1, 1), N * (N + 1) / 2);
  // Editing row 0 ripples through every total.
  S.setLiteral(0, 0, 101);
  EXPECT_EQ(S.value(N - 1, 1), N * (N + 1) / 2 + 100);
  // Editing the last row touches only the last total.
  RT.resetStats();
  S.setLiteral(N - 1, 0, N + 100);
  EXPECT_EQ(S.value(N - 1, 1), N * (N + 1) / 2 + 200);
  EXPECT_LE(RT.stats().ProcExecutions, 6u);
}

TEST(SpreadsheetTest, ExhaustiveBaselineAgrees) {
  Runtime RT;
  Spreadsheet S(RT, 4, 4);
  S.setFormula(0, 0, "2");
  S.setFormula(0, 1, "cell(0,0) * 10");
  S.setFormula(1, 0, "cell(0,1) + cell(0,0)");
  S.setFormula(1, 1, "let s = cell(1,0) in s + s ni");
  long long Exhaustive = S.recomputeAllExhaustive();
  long long Incremental = 0;
  for (int R = 0; R < 4; ++R)
    for (int C = 0; C < 4; ++C)
      Incremental += S.value(R, C);
  EXPECT_EQ(Exhaustive, Incremental);
}

TEST(SpreadsheetTest, SetAllCommitsAtomically) {
  Runtime RT;
  Spreadsheet S(RT, 2, 2);
  S.setFormula(1, 1, "cell(0,0) + cell(0,1)");
  EXPECT_EQ(S.value(1, 1), 0);
  EXPECT_TRUE(S.setAll({{0, 0, "4"}, {0, 1, "5"}}));
  EXPECT_EQ(S.value(1, 1), 9);
  EXPECT_EQ(RT.stats().TxnCommitted, 1u);
}

TEST(SpreadsheetTest, SetAllRollsBackOnParseError) {
  Runtime RT;
  Spreadsheet S(RT, 2, 2);
  S.setFormula(0, 0, "1");
  S.setFormula(0, 1, "cell(0,0) * 10");
  EXPECT_EQ(S.value(0, 1), 10);
  // The first edit parses; the second does not. Neither survives.
  EXPECT_FALSE(S.setAll({{0, 0, "2"}, {0, 1, "cell(0,0) +"}}));
  EXPECT_TRUE(S.diagnostics().hasErrors());
  EXPECT_EQ(S.value(0, 0), 1);
  EXPECT_EQ(S.value(0, 1), 10);
  EXPECT_EQ(RT.stats().TxnRolledBack, 1u);
  EXPECT_TRUE(RT.graph().verify().empty());
}

TEST(SpreadsheetTest, SetAllRollsBackOnOutOfRangeTarget) {
  Runtime RT;
  Spreadsheet S(RT, 2, 2);
  S.setFormula(0, 0, "1");
  EXPECT_FALSE(S.setAll({{0, 0, "2"}, {5, 5, "3"}}));
  EXPECT_EQ(S.value(0, 0), 1);
  EXPECT_EQ(RT.stats().TxnRolledBack, 1u);
}

TEST(SpreadsheetTest, SetAllRollsBackOnIntroducedCycle) {
  Runtime RT;
  Spreadsheet S(RT, 2, 2);
  S.setFormula(0, 0, "3");
  S.setFormula(0, 1, "cell(0,0) * 2");
  EXPECT_EQ(S.value(0, 1), 6);
  // The batch would close a reference cycle (0,0) -> (0,1) -> (0,0):
  // everything reverts, including the cycle flag.
  EXPECT_FALSE(S.setAll({{0, 0, "cell(0,1) + 1"}}));
  EXPECT_FALSE(S.cycleDetected());
  EXPECT_EQ(S.value(0, 0), 3);
  EXPECT_EQ(S.value(0, 1), 6);
  EXPECT_EQ(RT.graph().numQuarantined(), 0u);
  EXPECT_TRUE(RT.graph().verify().empty());

  // A fault-free batch on the recovered sheet still commits.
  EXPECT_TRUE(S.setAll({{0, 0, "10"}, {1, 0, "cell(0,1) + 1"}}));
  EXPECT_EQ(S.value(1, 0), 21);
}

TEST(SpreadsheetTest, SetAllRollsBackOnInjectedFault) {
  Runtime RT;
  Spreadsheet S(RT, 2, 2);
  S.setFormula(0, 0, "2");
  S.setFormula(0, 1, "cell(0,0) + 1");
  EXPECT_EQ(S.value(0, 1), 3);

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armThrow("Sheet.value");
  EXPECT_FALSE(S.setAll({{0, 0, "100"}}));
  EXPECT_EQ(S.value(0, 0), 2);
  EXPECT_EQ(S.value(0, 1), 3);
  EXPECT_EQ(RT.graph().numQuarantined(), 0u);
  EXPECT_TRUE(RT.graph().verify().empty());

  // The injector fired once; the retry goes through.
  EXPECT_TRUE(S.setAll({{0, 0, "100"}}));
  EXPECT_EQ(S.value(0, 1), 101);
}

TEST(SpreadsheetTest, SetAllClearsCellsTransactionally) {
  Runtime RT;
  Spreadsheet S(RT, 2, 2);
  S.setFormula(0, 0, "8");
  S.setFormula(0, 1, "cell(0,0) + 1");
  EXPECT_EQ(S.value(0, 1), 9);
  EXPECT_TRUE(S.setAll({{0, 0, ""}, {1, 1, "5"}}));
  EXPECT_EQ(S.value(0, 0), 0);
  EXPECT_EQ(S.value(0, 1), 1);
  EXPECT_EQ(S.value(1, 1), 5);
}

/// Parameterized random-sheet equivalence: random formulas with
/// back-references (acyclic by construction), random edits, oracle checks.
class SpreadsheetRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SpreadsheetRandomTest, RandomEditsMatchOracle) {
  int Dim = GetParam();
  std::mt19937 Rng(static_cast<unsigned>(Dim * 17));
  Runtime RT;
  Spreadsheet S(RT, Dim, Dim);
  // Fill in raster order; formulas may reference strictly earlier cells,
  // so the sheet is acyclic.
  auto RandomRef = [&](int Upto) {
    int I = static_cast<int>(Rng() % static_cast<unsigned>(Upto));
    return "cell(" + std::to_string(I / Dim) + "," + std::to_string(I % Dim) +
           ")";
  };
  for (int I = 0; I < Dim * Dim; ++I) {
    int R = I / Dim, C = I % Dim;
    if (I == 0 || Rng() % 3 == 0) {
      S.setLiteral(R, C, static_cast<int>(Rng() % 50));
      continue;
    }
    std::string F = RandomRef(I) + " + " + RandomRef(I);
    if (Rng() % 4 == 0)
      F = "let t = " + RandomRef(I) + " in t * 2 + " + F + " ni";
    ASSERT_TRUE(S.setFormula(R, C, F)) << S.diagnostics().str();
  }
  for (int Edit = 0; Edit < 30; ++Edit) {
    int R = static_cast<int>(Rng() % Dim), C = static_cast<int>(Rng() % Dim);
    S.setLiteral(R, C, static_cast<int>(Rng() % 50));
    long long Inc = 0;
    for (int I = 0; I < Dim * Dim; ++I)
      Inc += S.value(I / Dim, I % Dim);
    ASSERT_EQ(Inc, S.recomputeAllExhaustive()) << "edit " << Edit;
  }
  EXPECT_FALSE(S.cycleDetected());
}

INSTANTIATE_TEST_SUITE_P(Dims, SpreadsheetRandomTest,
                         ::testing::Values(2, 4, 8));

/// Temp checkpoint path removed (with its sidecars) on scope exit.
class TempSheetCheckpoint {
public:
  explicit TempSheetCheckpoint(const std::string &Stem) {
    const char *Dir = std::getenv("TMPDIR");
    Path = std::string(Dir ? Dir : "/tmp") + "/" + Stem + "." +
           std::to_string(::getpid()) + ".ckpt";
  }
  ~TempSheetCheckpoint() {
    std::remove(Path.c_str());
    std::remove((Path + ".tmp").c_str());
    std::remove(deltaLogPath(Path).c_str());
  }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

TEST(SpreadsheetCheckpointTest, StructuralRoundtrip) {
  TempSheetCheckpoint File("sheet-ckpt");
  Runtime RTA;
  Spreadsheet A(RTA, 3, 3);
  ASSERT_TRUE(A.setFormula(0, 0, "7"));
  ASSERT_TRUE(A.setFormula(0, 1, "cell(0,0) * 3"));
  ASSERT_TRUE(A.setFormula(1, 0, "let x = cell(0,1) in x + 2 ni"));
  A.setLiteral(2, 2, 41);
  A.saveCheckpoint(File.path());

  Runtime RTB;
  Spreadsheet B(RTB, 3, 3);
  B.restoreCheckpoint(File.path());
  EXPECT_EQ(B.value(0, 0), 7);
  EXPECT_EQ(B.value(0, 1), 21);
  EXPECT_EQ(B.value(1, 0), 23);
  EXPECT_EQ(B.value(2, 2), 41);
  EXPECT_FALSE(B.cycleDetected());
  EXPECT_TRUE(RTB.graph().verify().empty());

  // The restored sheet keeps recalculating incrementally.
  B.setLiteral(0, 0, 10);
  EXPECT_EQ(B.value(1, 0), 32);
}

TEST(SpreadsheetCheckpointTest, DimensionMismatchIsRejected) {
  TempSheetCheckpoint File("sheet-ckpt-dims");
  Runtime RTA;
  Spreadsheet A(RTA, 2, 2);
  A.setLiteral(0, 0, 5);
  A.saveCheckpoint(File.path());

  Runtime RTB;
  Spreadsheet B(RTB, 3, 2);
  try {
    B.restoreCheckpoint(File.path());
    FAIL() << "restore into a different extent must throw";
  } catch (const CheckpointError &E) {
    EXPECT_EQ(E.code(), CkptError::Malformed);
  }
}

TEST(SpreadsheetCheckpointTest, RolledBackBatchIsNotPersisted) {
  TempSheetCheckpoint File("sheet-ckpt-rollback");
  Runtime RTA;
  Spreadsheet A(RTA, 2, 2);
  ASSERT_TRUE(A.setFormula(0, 0, "9"));
  ASSERT_TRUE(A.setFormula(0, 1, "cell(0,0) + 1"));

  // The batch fails on a parse error; its formula sources must not leak
  // into a later checkpoint (they are journaled alongside the values).
  EXPECT_FALSE(A.setAll({{0, 0, "100"}, {0, 1, "syntax ((("}}));
  A.saveCheckpoint(File.path());

  Runtime RTB;
  Spreadsheet B(RTB, 2, 2);
  B.restoreCheckpoint(File.path());
  EXPECT_EQ(B.value(0, 0), 9);
  EXPECT_EQ(B.value(0, 1), 10);
}

// E4's Pascal fabric: cell (r, c) = cell(r, c-1) + cell(r-1, c). An
// unmemoized oracle walks every path of each cell's cone, exponential in
// r + c; save and restore-validate run in one memoized pass instead.
// Only the last rows hold nonzero literals, so no value overflows.
TEST(SpreadsheetCheckpointTest, PascalFabricRoundtripsInOnePass) {
  TempSheetCheckpoint File("sheet-ckpt-pascal");
  constexpr int M = 24;
  Runtime RTA;
  Spreadsheet A(RTA, M, M);
  for (int R = 0; R < M; ++R)
    A.setLiteral(R, 0, R < M - 3 ? 0 : R);
  for (int C = 1; C < M; ++C) {
    ASSERT_TRUE(A.setFormula(0, C, "cell(0," + std::to_string(C - 1) + ")"));
    for (int R = 1; R < M; ++R)
      ASSERT_TRUE(A.setFormula(R, C,
                               "cell(" + std::to_string(R) + "," +
                                   std::to_string(C - 1) + ") + cell(" +
                                   std::to_string(R - 1) + "," +
                                   std::to_string(C) + ")"));
  }
  // Each literal times its lattice paths into the corner: C(24,2), 23, 1.
  ASSERT_EQ(A.value(M - 1, M - 1), 21 * 276 + 22 * 23 + 23);
  A.saveCheckpoint(File.path());

  Runtime RTB;
  Spreadsheet B(RTB, M, M);
  B.restoreCheckpoint(File.path());
  for (int R = 0; R < M; ++R)
    for (int C = 0; C < M; ++C)
      ASSERT_EQ(B.value(R, C), A.value(R, C)) << R << "," << C;
  EXPECT_EQ(B.recomputeAllExhaustive(), A.recomputeAllExhaustive());
}

TEST(SpreadsheetTest, BudgetedRecalcServesStaleValuesThenCatchesUp) {
  Runtime RT;
  Spreadsheet S(RT, 1, 6);
  // A reference chain: each cell is its left neighbor plus one.
  ASSERT_TRUE(S.setFormula(0, 0, "1"));
  for (int C = 1; C < 6; ++C)
    ASSERT_TRUE(
        S.setFormula(0, C, "cell(0," + std::to_string(C - 1) + ") + 1"));
  EXPECT_EQ(S.value(0, 5), 6);
  S.recalc();
  EXPECT_FALSE(S.valueIsStale(0, 5));

  // Edit the head, then recalc under a one-step budget: the wave cancels
  // long before the invalidation reaches the chain's tail, and the
  // unreached cone is flagged stale (its cached values are the old ones).
  S.setLiteral(0, 0, 100);
  EXPECT_EQ(S.recalc(WaveBudget::steps(1)), WaveOutcome::DegradedSteps);
  EXPECT_TRUE(S.valueIsStale(0, 5))
      << "the tail has not seen the edit yet; reads there are degraded";

  // An unbudgeted recalc finishes the parked wave exactly.
  EXPECT_EQ(S.recalc(WaveBudget()), WaveOutcome::Completed);
  EXPECT_FALSE(S.valueIsStale(0, 5));
  EXPECT_EQ(S.value(0, 5), 105);
  EXPECT_EQ(S.recomputeAllExhaustive(),
            100 + 101 + 102 + 103 + 104 + 105);
}

} // namespace
} // namespace alphonse::spreadsheet
