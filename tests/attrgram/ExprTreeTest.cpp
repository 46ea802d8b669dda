//===- ExprTreeTest.cpp - Attribute grammar tests -------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the Section 7.1 attribute-grammar encoding: synthesized and
/// inherited attributes as maintained methods, incremental reattribution
/// after edits, environment semantics (shadowing), and oracle equivalence
/// under random edits.
///
//===----------------------------------------------------------------------===//

#include "attrgram/ExprTree.h"
#include "attrgram/FormulaParser.h"

#include <gtest/gtest.h>

#include <random>

namespace alphonse::attrgram {
namespace {

TEST(EnvTest, EmptyLookupFails) {
  Env E;
  EXPECT_TRUE(E.empty());
  EXPECT_FALSE(E.lookup("x").has_value());
}

TEST(EnvTest, UpdateShadowsOuterBinding) {
  Env E = Env().update("x", 1).update("y", 2).update("x", 3);
  EXPECT_EQ(E.lookup("x"), 3);
  EXPECT_EQ(E.lookup("y"), 2);
  EXPECT_EQ(E.size(), 3u);
}

TEST(EnvTest, StructuralEquality) {
  Env A = Env().update("x", 1).update("y", 2);
  Env B = Env().update("x", 1).update("y", 2);
  Env C = Env().update("x", 1).update("y", 3);
  EXPECT_TRUE(A == B);
  EXPECT_FALSE(A == C);
  EXPECT_TRUE(Env() == Env());
  EXPECT_FALSE(A == Env());
}

TEST(EnvTest, SharedTailFastPath) {
  Env Base = Env().update("a", 1);
  Env X = Base.update("b", 2);
  Env Y = Base.update("b", 2);
  EXPECT_TRUE(X == Y); // Distinct heads, shared tail.
}

TEST(ExprTreeTest, LiteralValue) {
  Runtime RT;
  ExprTree T(RT);
  Exp *E = T.makeInt(42);
  EXPECT_EQ(T.value(E), 42);
}

TEST(ExprTreeTest, SumAndProduct) {
  Runtime RT;
  ExprTree T(RT);
  Exp *E = T.makePlus(T.makeInt(2), T.makeMul(T.makeInt(3), T.makeInt(4)));
  EXPECT_EQ(T.value(E), 14);
}

TEST(ExprTreeTest, LetBindingAndLookup) {
  // let x = 5 in x + x ni == 10
  Runtime RT;
  ExprTree T(RT);
  Exp *Body = T.makePlus(T.makeId("x"), T.makeId("x"));
  Exp *Let = T.makeLet("x", T.makeInt(5), Body);
  RootExp *Root = T.makeRoot(Let);
  EXPECT_EQ(T.value(Root), 10);
}

TEST(ExprTreeTest, NestedLetsShadow) {
  // let x = 1 in (let x = 2 in x ni) + x ni == 3
  Runtime RT;
  ExprTree T(RT);
  Exp *Inner = T.makeLet("x", T.makeInt(2), T.makeId("x"));
  Exp *Sum = T.makePlus(Inner, T.makeId("x"));
  Exp *Outer = T.makeLet("x", T.makeInt(1), Sum);
  EXPECT_EQ(T.value(T.makeRoot(Outer)), 3);
}

TEST(ExprTreeTest, UnboundIdentifierIsZero) {
  Runtime RT;
  ExprTree T(RT);
  EXPECT_EQ(T.value(T.makeRoot(T.makeId("ghost"))), 0);
}

TEST(ExprTreeTest, BindingExpressionSeesOuterScope) {
  // let x = 1 in let x = x + 10 in x ni ni == 11: the inner binding's RHS
  // inherits the *outer* environment (LetEnv's case analysis).
  Runtime RT;
  ExprTree T(RT);
  Exp *InnerBind = T.makePlus(T.makeId("x"), T.makeInt(10));
  Exp *Inner = T.makeLet("x", InnerBind, T.makeId("x"));
  Exp *Outer = T.makeLet("x", T.makeInt(1), Inner);
  EXPECT_EQ(T.value(T.makeRoot(Outer)), 11);
}

TEST(ExprTreeTest, LiteralEditReattributesIncrementally) {
  Runtime RT;
  ExprTree T(RT);
  IntExp *Leaf = T.makeInt(5);
  Exp *E = T.makePlus(Leaf, T.makeInt(7));
  RootExp *Root = T.makeRoot(E);
  EXPECT_EQ(T.value(Root), 12);
  RT.resetStats();
  Leaf->Lit.set(6);
  EXPECT_EQ(T.value(Root), 13);
  // Only the leaf, the plus, and the root re-run.
  EXPECT_LE(RT.stats().ProcExecutions, 3u);
}

TEST(ExprTreeTest, EditOutsideLetBodyDoesNotReattributeBody) {
  // In (let y = B in big-body ni), editing a literal inside the *body*
  // leaves the binding's value() cached, and vice versa.
  Runtime RT;
  ExprTree T(RT);
  IntExp *BindLit = T.makeInt(3);
  IntExp *BodyLit = T.makeInt(100);
  Exp *Body = T.makePlus(T.makeId("y"), BodyLit);
  Exp *Let = T.makeLet("y", BindLit, Body);
  RootExp *Root = T.makeRoot(Let);
  EXPECT_EQ(T.value(Root), 103);
  RT.resetStats();
  BodyLit->Lit.set(200);
  EXPECT_EQ(T.value(Root), 203);
  // The binding literal's value instance must not have re-run.
  uint64_t AfterBodyEdit = RT.stats().ProcExecutions;
  EXPECT_LE(AfterBodyEdit, 4u);
}

TEST(ExprTreeTest, RenamingTheBinderReattributesUses) {
  Runtime RT;
  ExprTree T(RT);
  Exp *Body = T.makePlus(T.makeId("x"), T.makeId("z"));
  LetExp *Let = T.makeLet("x", T.makeInt(9), Body);
  RootExp *Root = T.makeRoot(Let);
  EXPECT_EQ(T.value(Root), 9); // x=9, z unbound=0.
  Let->Id.set("z");
  EXPECT_EQ(T.value(Root), 9); // Now z=9, x unbound.
  Let->Id.set("w");
  EXPECT_EQ(T.value(Root), 0); // Neither bound.
}

TEST(ExprTreeTest, SubtreeSpliceReattributes) {
  Runtime RT;
  ExprTree T(RT);
  PlusExp *Sum = T.makePlus(T.makeInt(1), T.makeInt(2));
  RootExp *Root = T.makeRoot(Sum);
  EXPECT_EQ(T.value(Root), 3);
  // Replace the RHS with (let k = 4 in k * k ni).
  Exp *NewRhs =
      T.makeLet("k", T.makeInt(4), T.makeMul(T.makeId("k"), T.makeId("k")));
  T.replaceChild(Sum->Rhs, Sum, NewRhs);
  EXPECT_EQ(T.value(Root), 17);
}

TEST(ExprTreeTest, EnvAttributeIsCachedPerChild) {
  Runtime RT;
  ExprTree T(RT);
  Exp *Body = T.makePlus(T.makeId("x"), T.makeId("x"));
  LetExp *Let = T.makeLet("x", T.makeInt(5), Body);
  RootExp *Root = T.makeRoot(Let);
  T.value(Root);
  // Demanding the env of the body again is a cache hit.
  RT.resetStats();
  Env E = T.env(Let, Let->Body.peek());
  EXPECT_EQ(E.lookup("x"), 5);
  EXPECT_EQ(RT.stats().ProcExecutions, 0u);
}

/// The name of let variable \p I ("v3"). Built with += on a named string:
/// GCC 12 reports a false -Wrestrict on "v" + std::to_string(I).
std::string varName(int I) {
  std::string Name = "v";
  Name += std::to_string(I);
  return Name;
}

TEST(ExprTreeTest, DeepLetChainIncrementalEdit) {
  // let v0 = 1 in let v1 = v0+1 in ... vN ni: editing the innermost
  // literal must not reattribute the whole chain of envs.
  Runtime RT;
  ExprTree T(RT);
  constexpr int Depth = 40;
  IntExp *Base = T.makeInt(1);
  Exp *Cur = T.makeId(varName(Depth - 1));
  std::vector<LetExp *> Lets;
  for (int I = Depth - 1; I >= 0; --I) {
    Exp *Bind = (I == 0)
                    ? static_cast<Exp *>(Base)
                    : T.makePlus(T.makeId(varName(I - 1)), T.makeInt(1));
    Cur = T.makeLet(varName(I), Bind, Cur);
  }
  RootExp *Root = T.makeRoot(Cur);
  EXPECT_EQ(T.value(Root), Depth);
  Base->Lit.set(11);
  EXPECT_EQ(T.value(Root), Depth + 10);
}

TEST(FormulaParserTest, ParsesArithmetic) {
  Runtime RT;
  ExprTree T(RT);
  DiagnosticEngine D;
  Exp *E = parseFormula(T, "1 + 2 * (3 + 4)", D);
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(T.value(E), 15);
}

TEST(FormulaParserTest, ParsesLet) {
  Runtime RT;
  ExprTree T(RT);
  DiagnosticEngine D;
  Exp *E = parseFormula(T, "let x = 2 + 3 in x * x ni", D);
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(T.value(T.makeRoot(E)), 25);
}

TEST(FormulaParserTest, NegativeLiterals) {
  Runtime RT;
  ExprTree T(RT);
  DiagnosticEngine D;
  Exp *E = parseFormula(T, "-3 + 10", D);
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(T.value(E), 7);
}

TEST(FormulaParserTest, ReportsErrors) {
  Runtime RT;
  ExprTree T(RT);
  DiagnosticEngine D;
  EXPECT_EQ(parseFormula(T, "1 + ", D), nullptr);
  EXPECT_TRUE(D.hasErrors());
  D.clear();
  EXPECT_EQ(parseFormula(T, "let = 3 in x ni", D), nullptr);
  EXPECT_TRUE(D.hasErrors());
  D.clear();
  EXPECT_EQ(parseFormula(T, "(1 + 2", D), nullptr);
  EXPECT_TRUE(D.hasErrors());
  D.clear();
  EXPECT_EQ(parseFormula(T, "1 2", D), nullptr);
  EXPECT_TRUE(D.hasErrors());
}

TEST(FormulaParserTest, CellRefsNeedAFactory) {
  Runtime RT;
  ExprTree T(RT);
  DiagnosticEngine D;
  EXPECT_EQ(parseFormula(T, "cell(1,2)", D), nullptr);
  EXPECT_TRUE(D.hasErrors());
}

/// Randomized oracle equivalence: build a random expression, evaluate
/// incrementally, then mutate random literals and re-check against the
/// exhaustive oracle after each edit.
TEST(ExprTreeTest, RandomEditsMatchOracle) {
  std::mt19937 Rng(777);
  Runtime RT;
  ExprTree T(RT);
  std::vector<IntExp *> Leaves;
  std::vector<std::string> Names = {"a", "b", "c"};

  // Random expression generator of bounded depth.
  std::function<Exp *(int)> Gen = [&](int Depth) -> Exp * {
    int Pick = static_cast<int>(Rng() % (Depth <= 0 ? 2 : 5));
    switch (Pick) {
    case 0: {
      IntExp *L = T.makeInt(static_cast<int>(Rng() % 100));
      Leaves.push_back(L);
      return L;
    }
    case 1:
      return T.makeId(Names[Rng() % Names.size()]);
    case 2:
      return T.makePlus(Gen(Depth - 1), Gen(Depth - 1));
    case 3:
      return T.makeMul(Gen(Depth - 1), Gen(Depth - 1));
    default:
      return T.makeLet(Names[Rng() % Names.size()], Gen(Depth - 1),
                       Gen(Depth - 1));
    }
  };

  RootExp *Root = T.makeRoot(Gen(6));
  EXPECT_EQ(T.value(Root), T.oracleValue(Root));
  for (int Edit = 0; Edit < 100 && !Leaves.empty(); ++Edit) {
    IntExp *L = Leaves[Rng() % Leaves.size()];
    L->Lit.set(static_cast<int>(Rng() % 100));
    ASSERT_EQ(T.value(Root), T.oracleValue(Root)) << "edit " << Edit;
  }
}

} // namespace
} // namespace alphonse::attrgram
