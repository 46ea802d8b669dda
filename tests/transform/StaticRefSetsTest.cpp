//===- StaticRefSetsTest.cpp - Section 6.2 analysis tests -----------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "transform/StaticRefSets.h"

#include "lang/CompileTestHelper.h"

#include <gtest/gtest.h>

namespace alphonse::transform {
namespace {

using testing::compile;

TEST(StaticRefSetsTest, HeightHasTheStaticSetOfThePaper) {
  // R(t.height()) = {t.left, t.left.height(), t.right, t.right.height()}:
  // the paper's Section 3.4 example of a static four-element set.
  auto C = compile(testing::heightTreeProgram(), /*DoTransform=*/false);
  ASSERT_TRUE(C->ok());
  StaticRefSetResult R = analyzeStaticRefSets(C->M, C->Info);
  const RefSetInfo *Height = R.info(C->M.findProc("Height"));
  ASSERT_NE(Height, nullptr);
  EXPECT_TRUE(Height->IsStatic);
  EXPECT_EQ(Height->Bound, 4);
  const RefSetInfo *HeightNil = R.info(C->M.findProc("HeightNil"));
  ASSERT_NE(HeightNil, nullptr);
  EXPECT_TRUE(HeightNil->IsStatic);
  EXPECT_EQ(HeightNil->Bound, 0); // R(n.height()) = {} for the nil object.
}

TEST(StaticRefSetsTest, LoopsAreUnbounded) {
  auto C = compile(R"(
TYPE T = OBJECT next : T; v : INTEGER;
METHODS (*MAINTAINED*) sum() : INTEGER := Sum; END;
PROCEDURE Sum(o : T) : INTEGER =
VAR p : T; s : INTEGER;
BEGIN
  p := o;
  WHILE p # NIL DO
    s := s + p.v;
    p := p.next;
  END;
  RETURN s;
END Sum;
)",
                   false);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  StaticRefSetResult R = analyzeStaticRefSets(C->M, C->Info);
  EXPECT_FALSE(R.info(C->M.findProc("Sum"))->IsStatic);
}

TEST(StaticRefSetsTest, RecursionIsUnbounded) {
  auto C = compile(R"(
(*CACHED*) PROCEDURE Fib(n : INTEGER) : INTEGER =
BEGIN
  IF n < 2 THEN RETURN n; END;
  RETURN Fib(n - 1) + Fib(n - 2);
END Fib;
)",
                   false);
  ASSERT_TRUE(C->ok());
  StaticRefSetResult R = analyzeStaticRefSets(C->M, C->Info);
  // Fib's own refs are the two cached callee instances... but the callee
  // is Fib itself and cached, so each call is one edge: actually static!
  // The cached pragma bounds the recursion at the call edge.
  const RefSetInfo *Fib = R.info(C->M.findProc("Fib"));
  ASSERT_NE(Fib, nullptr);
  EXPECT_TRUE(Fib->IsStatic);
  EXPECT_EQ(Fib->Bound, 2);
}

TEST(StaticRefSetsTest, ConventionalRecursionIsUnbounded) {
  auto C = compile(R"(
PROCEDURE Walk(n : INTEGER) : INTEGER =
BEGIN
  IF n <= 0 THEN RETURN 0; END;
  RETURN Walk(n - 1) + 1;
END Walk;
)",
                   false);
  ASSERT_TRUE(C->ok());
  StaticRefSetResult R = analyzeStaticRefSets(C->M, C->Info);
  EXPECT_FALSE(R.info(C->M.findProc("Walk"))->IsStatic);
}

TEST(StaticRefSetsTest, ConventionalHelpersInline) {
  auto C = compile(R"(
VAR g1, g2 : INTEGER;
TYPE T = OBJECT METHODS (*MAINTAINED*) m() : INTEGER := M; END;
PROCEDURE Helper() : INTEGER = BEGIN RETURN g1 + g2; END Helper;
PROCEDURE M(o : T) : INTEGER = BEGIN RETURN Helper() + g1; END M;
)",
                   false);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  StaticRefSetResult R = analyzeStaticRefSets(C->M, C->Info);
  const RefSetInfo *MInfo = R.info(C->M.findProc("M"));
  ASSERT_NE(MInfo, nullptr);
  EXPECT_TRUE(MInfo->IsStatic);
  // Helper's two globals inline, plus M's own read of g1.
  EXPECT_EQ(MInfo->Bound, 3);
}

TEST(StaticRefSetsTest, UncheckedReferencesCostNothing) {
  auto C = compile(R"(
VAR a, b : INTEGER;
TYPE T = OBJECT METHODS (*MAINTAINED*) m() : INTEGER := M; END;
PROCEDURE M(o : T) : INTEGER =
BEGIN
  RETURN a + (*UNCHECKED*) b;
END M;
)",
                   false);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  StaticRefSetResult R = analyzeStaticRefSets(C->M, C->Info);
  EXPECT_EQ(R.info(C->M.findProc("M"))->Bound, 1); // Only 'a'.
}

TEST(StaticRefSetsTest, MutualRecursionWidensBothDirections) {
  // A <-> B: whichever side the fixpoint enters first, both must come out
  // unbounded — the memoized Unbounded result propagates into every
  // caller.
  auto C = compile(R"(
PROCEDURE Even(n : INTEGER) : BOOLEAN =
BEGIN
  IF n = 0 THEN RETURN TRUE; END;
  RETURN Odd(n - 1);
END Even;
PROCEDURE Odd(n : INTEGER) : BOOLEAN =
BEGIN
  IF n = 0 THEN RETURN FALSE; END;
  RETURN Even(n - 1);
END Odd;
)",
                   false);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  StaticRefSetResult R = analyzeStaticRefSets(C->M, C->Info);
  for (const char *Name : {"Even", "Odd"}) {
    SCOPED_TRACE(Name);
    const RefSetInfo *RI = R.info(C->M.findProc(Name));
    ASSERT_NE(RI, nullptr);
    EXPECT_FALSE(RI->IsStatic);
  }
}

TEST(StaticRefSetsTest, LoopWidens) {
  auto C = compile(R"(
VAR g : INTEGER;
PROCEDURE Spin(n : INTEGER) : INTEGER =
VAR s : INTEGER;
BEGIN
  WHILE n > 0 DO
    s := s + g;
    n := n - 1;
  END;
  RETURN s;
END Spin;
)",
                   false);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  StaticRefSetResult R = analyzeStaticRefSets(C->M, C->Info);
  const RefSetInfo *Spin = R.info(C->M.findProc("Spin"));
  ASSERT_NE(Spin, nullptr);
  EXPECT_FALSE(Spin->IsStatic);
}

TEST(StaticRefSetsTest, OpenVtableOverrideWidensDispatch) {
  // The vtable is open: a subtype may rebind a method to a conventional
  // implementation whose refs are unbounded. Every dispatch site on that
  // name must then degrade to the dynamic path — never silently stay
  // "static".
  auto C = compile(R"(
TYPE T = OBJECT
  next : T; v : INTEGER;
METHODS
  (*MAINTAINED*) cost() : INTEGER := Cost;
END;
TYPE U = T OBJECT
OVERRIDES
  cost := CostAll;
END;
VAR head : T;
PROCEDURE Cost(o : T) : INTEGER =
BEGIN
  RETURN o.v;
END Cost;
PROCEDURE CostAll(o : T) : INTEGER =
VAR p : T; s : INTEGER;
BEGIN
  p := o;
  WHILE p # NIL DO
    s := s + p.v;
    p := p.next;
  END;
  RETURN s;
END CostAll;
(*CACHED*) PROCEDURE HeadCost() : INTEGER =
BEGIN
  RETURN head.cost();
END HeadCost;
)",
                   false);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  StaticRefSetResult R = analyzeStaticRefSets(C->M, C->Info);
  // The unbounded conventional override itself.
  const RefSetInfo *All = R.info(C->M.findProc("CostAll"));
  ASSERT_NE(All, nullptr);
  EXPECT_FALSE(All->IsStatic);
  // The dispatch site inherits the widening even though the base binding
  // alone would have been a one-edge maintained call.
  const RefSetInfo *Head = R.info(C->M.findProc("HeadCost"));
  ASSERT_NE(Head, nullptr);
  EXPECT_FALSE(Head->IsStatic);
}

TEST(StaticRefSetsTest, AvlBalanceIsStatic) {
  // Balance touches a fixed set of fields and incremental methods per
  // node; the rotations write fields (each write counts its location).
  auto C = compile(testing::avlProgram(), /*DoTransform=*/false);
  ASSERT_TRUE(C->ok());
  StaticRefSetResult R = analyzeStaticRefSets(C->M, C->Info);
  const RefSetInfo *Balance = R.info(C->M.findProc("Balance"));
  ASSERT_NE(Balance, nullptr);
  EXPECT_TRUE(Balance->IsStatic);
  EXPECT_GT(Balance->Bound, 4);
  // Contains walks the tree with a loop: unbounded.
  EXPECT_FALSE(R.info(C->M.findProc("Contains"))->IsStatic);
}

} // namespace
} // namespace alphonse::transform
