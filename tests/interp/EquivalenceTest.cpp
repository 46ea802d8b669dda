//===- EquivalenceTest.cpp - Theorem 5.1 equivalence tests ----------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Theorem 5.1: "Given an Alphonse program P, Alphonse execution of P will
/// produce the same output as a conventional execution of P." These tests
/// run one module through both execution modes of the interpreter with
/// identical driver scripts, and hold each to the graph-free reference
/// evaluator's conventional execution (Reference.h) with the check
/// BytecodeDiffTest uses: every return value, the print output, and the
/// final global state. The two modes share the VM, so comparing them only
/// with each other would miss a VM bug; the reference shares no code with
/// it. A randomized driver sweeps many interleavings of mutation and
/// demand.
///
//===----------------------------------------------------------------------===//

#include "interp/Differential.h"

#include <gtest/gtest.h>

#include <random>

namespace alphonse::interp {
namespace {

using testing::compile;
using testing::Compiled;
using testing::RunResult;
using testing::Step;

/// Runs the same step sequence through the reference and through the VM
/// in both modes (testing::checkDifferential). The Theorem 5.1 scripts
/// run to completion.
static void checkEquivalence(const Compiled &C,
                             const std::vector<Step> &Script) {
  RunResult Ref = testing::checkDifferential(C, Script);
  EXPECT_FALSE(Ref.Failed) << Ref.Error;
}

TEST(EquivalenceTest, HeightTreeScript) {
  auto C = compile(testing::heightTreeProgram());
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  checkEquivalence(*C, {
                           {"BuildChain", {15}},
                           {"RootHeight", {}},
                           {"RootHeight", {}},
                           {"GrowLeft", {4}},
                           {"RootHeight", {}},
                           {"GrowLeft", {1}},
                           {"GrowLeft", {2}},
                           {"RootHeight", {}},
                       });
}

TEST(EquivalenceTest, AvlScriptedInserts) {
  auto C = compile(testing::avlProgram());
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  std::vector<Step> Script = {{"InitTree", {}}};
  for (long K : {50, 20, 70, 10, 30, 60, 80, 5, 15, 25, 35})
    Script.push_back({"Insert", {K}});
  Script.push_back({"Rebalance", {}});
  Script.push_back({"IsBalanced", {}});
  Script.push_back({"TreeHeight", {}});
  for (long K : {5, 15, 42, 80, 100})
    Script.push_back({"Contains", {K}});
  checkEquivalence(*C, Script);
}

TEST(EquivalenceTest, AvlRandomizedInterleavings) {
  auto C = compile(testing::avlProgram());
  ASSERT_TRUE(C->ok());
  for (unsigned Seed = 1; Seed <= 5; ++Seed) {
    std::mt19937 Rng(Seed);
    std::vector<Step> Script = {{"InitTree", {}}};
    for (int I = 0; I < 120; ++I) {
      long K = static_cast<long>(Rng() % 200);
      switch (Rng() % 4) {
      case 0:
      case 1:
        Script.push_back({"Insert", {K}});
        break;
      case 2:
        Script.push_back({"Contains", {K}});
        break;
      default:
        Script.push_back({"Rebalance", {}});
        break;
      }
    }
    Script.push_back({"IsBalanced", {}});
    Script.push_back({"TreeHeight", {}});
    checkEquivalence(*C, Script);
  }
}

TEST(EquivalenceTest, CachedFibWithPrints) {
  auto C = compile(R"(
(*CACHED*) PROCEDURE Fib(n : INTEGER) : INTEGER =
BEGIN
  IF n < 2 THEN
    RETURN n;
  END;
  RETURN Fib(n - 1) + Fib(n - 2);
END Fib;
PROCEDURE Show(n : INTEGER) =
BEGIN
  print(Fib(n));
END Show;
)");
  ASSERT_TRUE(C->ok());
  checkEquivalence(*C, {
                           {"Show", {10}},
                           {"Show", {15}},
                           {"Show", {10}},
                           {"Show", {20}},
                       });
}

TEST(EquivalenceTest, GlobalMutationScript) {
  auto C = compile(R"(
VAR acc : INTEGER := 0; factor : INTEGER := 1;
(*CACHED*) PROCEDURE Scaled(x : INTEGER) : INTEGER =
BEGIN
  RETURN x * factor;
END Scaled;
PROCEDURE SetFactor(f : INTEGER) = BEGIN factor := f; END SetFactor;
PROCEDURE Accumulate(x : INTEGER) : INTEGER =
BEGIN
  acc := acc + Scaled(x);
  RETURN acc;
END Accumulate;
)");
  ASSERT_TRUE(C->ok());
  checkEquivalence(*C, {
                           {"Accumulate", {3}},
                           {"Accumulate", {3}},
                           {"SetFactor", {10}},
                           {"Accumulate", {3}},
                           {"SetFactor", {10}}, // Quiescent write.
                           {"Accumulate", {4}},
                           {"SetFactor", {1}},
                           {"Accumulate", {5}},
                       });
}

TEST(EquivalenceTest, MaintainedWithSideEffectRepair) {
  // A maintained method that writes storage it also reads (the AVL
  // rotation pattern in miniature): the OBS argument says spurious
  // re-execution is unobservable, and outputs must agree.
  auto C = compile(R"(
TYPE Pair = OBJECT
  a, b : INTEGER;
METHODS
  (*MAINTAINED*) sorted() : INTEGER := Sorted;
END;
VAR p : Pair;
PROCEDURE Sorted(o : Pair) : INTEGER =
VAR t : INTEGER;
BEGIN
  IF o.a > o.b THEN
    t := o.a;
    o.a := o.b;
    o.b := t;
  END;
  RETURN o.b - o.a;
END Sorted;
PROCEDURE Init() = BEGIN p := NEW(Pair); END Init;
PROCEDURE SetPair(x, y : INTEGER) : INTEGER =
BEGIN
  p.a := x;
  p.b := y;
  RETURN p.sorted();
END SetPair;
PROCEDURE Low() : INTEGER = BEGIN RETURN p.a; END Low;
)");
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  checkEquivalence(*C, {
                           {"Init", {}},
                           {"SetPair", {5, 2}},
                           {"Low", {}},
                           {"SetPair", {1, 9}},
                           {"Low", {}},
                           {"SetPair", {7, 7}},
                           {"Low", {}},
                       });
}

TEST(EquivalenceTest, CachedOperatorResults) {
  // Cached answers built from every comparison, abs/min/max and DIV/MOD,
  // over inputs that move through equal, negative and mixed-sign values:
  // each change must re-execute the readers, and each cache hit must
  // serve what conventional execution computes.
  auto C = compile(R"(
VAR x, y : INTEGER;
(*CACHED*) PROCEDURE Relations() : TEXT =
BEGIN
  RETURN fmt(x < y) & " " & fmt(x <= y) & " " & fmt(x > y) & " " &
         fmt(x >= y) & " " & fmt(x = y) & " " & fmt(x # y);
END Relations;
(*CACHED*) PROCEDURE Numeric() : TEXT =
BEGIN
  RETURN fmt(abs(x)) & " " & fmt(min(x, y)) & " " & fmt(max(x, y)) & " " &
         fmt(x DIV y) & " " & fmt(x MOD y);
END Numeric;
PROCEDURE Set(a, b : INTEGER) = BEGIN x := a; y := b; END Set;
)");
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  std::vector<Step> Script;
  for (std::pair<long, long> XY : std::vector<std::pair<long, long>>{
           {4, 4}, {-3, -3}, {1, 2}, {2, 1}, {-5, 3}, {-7, 2}, {7, -2},
           {-7, -2}, {-9, -30}, {0, -4}, {0, -4}}) {
    Script.push_back({"Set", {XY.first, XY.second}});
    Script.push_back({"Relations", {}});
    Script.push_back({"Numeric", {}});
    Script.push_back({"Relations", {}});
  }
  checkEquivalence(*C, Script);
}

TEST(EquivalenceTest, RandomHeightTreeGrowth) {
  auto C = compile(testing::heightTreeProgram());
  ASSERT_TRUE(C->ok());
  for (unsigned Seed = 11; Seed <= 13; ++Seed) {
    std::mt19937 Rng(Seed);
    std::vector<Step> Script = {{"BuildChain", {long(1 + Rng() % 10)}}};
    for (int I = 0; I < 40; ++I) {
      if (Rng() % 2 == 0)
        Script.push_back({"GrowLeft", {long(1 + Rng() % 3)}});
      else
        Script.push_back({"RootHeight", {}});
    }
    checkEquivalence(*C, Script);
  }
}

} // namespace
} // namespace alphonse::interp
