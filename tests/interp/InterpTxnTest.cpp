//===- InterpTxnTest.cpp - Interpreter transactional batch tests ----------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Transactional mutation batches over the Alphonse-L interpreter: a
/// Transaction wrapped around interpreter calls rolls global storage,
/// instance caches, and the dependency graph back to the pre-batch
/// quiescent state when a call faults, and a fault-free retry commits.
///
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "lang/CompileTestHelper.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

namespace alphonse::interp {
namespace {

using testing::compile;

static Value IV(long X) { return Value::integer(X); }

const char *CounterProgram = R"(
VAR x : INTEGER := 1;
(*CACHED*) PROCEDURE F(k : INTEGER) : INTEGER = BEGIN RETURN x + k; END F;
PROCEDURE SetX(v : INTEGER) = BEGIN x := v; END SetX;
)";

TEST(InterpTxnTest, CommittedBatchAppliesGlobalWrites) {
  auto C = compile(CounterProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  EXPECT_EQ(I.call("F", {IV(1)}).Int, 2);

  Transaction Txn(I.runtime());
  I.call("SetX", {IV(10)});
  EXPECT_EQ(I.call("F", {IV(1)}).Int, 11);
  ASSERT_TRUE(Txn.commit());
  EXPECT_EQ(I.global("x").Int, 10);
  EXPECT_EQ(I.call("F", {IV(1)}).Int, 11);
  EXPECT_FALSE(I.failed());
}

TEST(InterpTxnTest, FaultedBatchRollsBackGlobalsAndCaches) {
  auto C = compile(CounterProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  EXPECT_EQ(I.call("F", {IV(1)}).Int, 2);
  uint64_t Epoch0 = I.runtime().epoch();

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armThrow("F"); // Instance nodes carry the procedure's name.

  {
    Transaction Txn(I.runtime());
    I.call("SetX", {IV(10)});
    I.call("F", {IV(1)}); // The re-execution faults inside the batch.
    EXPECT_TRUE(I.failed());
    EXPECT_FALSE(Txn.commit());
  }

  // Every interpreter observable is back to the pre-batch state.
  EXPECT_EQ(I.global("x").Int, 1);
  EXPECT_EQ(I.runtime().graph().numQuarantined(), 0u);
  EXPECT_EQ(I.runtime().epoch(), Epoch0 + 1);
  EXPECT_TRUE(I.runtime().graph().verify().empty());
  I.clearError();
  EXPECT_EQ(I.call("F", {IV(1)}).Int, 2); // Restored cache, restored value.

  // The same batch without the fault commits (the injector is spent).
  {
    Transaction Txn(I.runtime());
    I.call("SetX", {IV(10)});
    EXPECT_EQ(I.call("F", {IV(1)}).Int, 11);
    EXPECT_TRUE(Txn.commit());
  }
  EXPECT_EQ(I.global("x").Int, 10);
  EXPECT_FALSE(I.failed());
}

const char *BoxProgram = R"(
TYPE Box = OBJECT v : INTEGER; END;
VAR g : INTEGER := 5;
VAR box : Box;
PROCEDURE Init() = BEGIN box := NEW(Box); box.v := 5; END Init;
PROCEDURE Poke(x : INTEGER) : INTEGER =
BEGIN
  g := x;
  box.v := x;
  RETURN 1 DIV 0;
END Poke;
)";

TEST(InterpTxnTest, RollbackRestoresGlobalsAndFieldsInEitherMode) {
  auto C = compile(BoxProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  for (ExecMode Mode : {ExecMode::Conventional, ExecMode::Alphonse}) {
    SCOPED_TRACE(Mode == ExecMode::Alphonse ? "Alphonse" : "Conventional");
    Interp I(C->M, C->Info, Mode);
    I.call("Init");
    Value Box = I.global("box");
    {
      // The batch's stores land before the fault; rollback takes them
      // back whatever the mode (alphonsec --transactional relies on it).
      Transaction Txn(I.runtime());
      I.call("Poke", {IV(99)});
      EXPECT_TRUE(I.failed());
      EXPECT_EQ(I.global("g").Int, 99);
      EXPECT_EQ(I.field(Box, "v").Int, 99);
      Txn.rollback();
    }
    EXPECT_EQ(I.global("g").Int, 5);
    EXPECT_EQ(I.field(Box, "v").Int, 5);
    EXPECT_TRUE(I.runtime().graph().verify().empty());
  }
}

TEST(InterpTxnTest, GlobalSlotFaultSiteIsNamed) {
  auto C = compile(CounterProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  EXPECT_EQ(I.call("F", {IV(2)}).Int, 3);

  // Global storage slots register fault sites as "G.<name>": the snapshot
  // refresh of x can be targeted directly.
  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armThrow("G.x");
  I.call("SetX", {IV(5)});
  I.pump(); // The refresh faults and quarantines the slot node.
  EXPECT_EQ(I.runtime().graph().numQuarantined(), 1u);
  EXPECT_EQ(I.runtime().graph().resetAllQuarantined(), 1u);
  I.pump();
  EXPECT_EQ(I.call("F", {IV(2)}).Int, 7);
}

const char *PairProgram = R"(
TYPE Pair = OBJECT a : INTEGER; b : INTEGER; END;
VAR p : Pair;
PROCEDURE Init() = BEGIN p := NEW(Pair); p.a := 1; p.b := 2; END Init;
(*CACHED*) PROCEDURE Sum() : INTEGER = BEGIN RETURN p.a + p.b; END Sum;
PROCEDURE Set(x : INTEGER; y : INTEGER) = BEGIN p.a := x; p.b := y; END Set;
)";

TEST(InterpTxnTest, FieldSlotFaultSiteIsNamed) {
  auto C = compile(PairProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  I.call("Init");
  EXPECT_EQ(I.call("Sum").Int, 3);

  // Field storage slots register fault sites as "<Type>.<field>": the
  // refresh of p.b can be targeted without touching p.a.
  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);
  Inj.armThrow("Pair.b");
  I.call("Set", {IV(10), IV(20)});
  I.pump(); // Both fields refresh; only b's refresh faults.
  auto Quarantined = I.runtime().graph().quarantined();
  ASSERT_EQ(Quarantined.size(), 1u);
  EXPECT_EQ(Quarantined[0].first->name(), "Pair.b");
  EXPECT_EQ(I.runtime().graph().resetAllQuarantined(), 1u);
  I.pump();
  EXPECT_EQ(I.call("Sum").Int, 30);
  ASSERT_FALSE(I.failed()) << I.errorMessage();
}

TEST(InterpTxnTest, RollbackDropsInstancesCreatedInBatch) {
  auto C = compile(testing::heightTreeProgram());
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  I.call("BuildChain", {IV(6)});
  EXPECT_EQ(I.call("RootHeight").Int, 6);
  ASSERT_FALSE(I.failed()) << I.errorMessage();
  size_t Nodes0 = I.runtime().graph().numLiveNodes();
  size_t Edges0 = I.runtime().graph().numLiveEdges();

  // Growing the chain creates fresh heap objects, slots and height
  // instances; rolling back must destroy the batch's graph nodes and
  // restore the old heights.
  {
    Transaction Txn(I.runtime());
    I.call("GrowLeft", {IV(4)});
    EXPECT_EQ(I.call("RootHeight").Int, 10);
    ASSERT_FALSE(I.failed()) << I.errorMessage();
    Txn.rollback();
  }
  EXPECT_EQ(I.runtime().graph().numLiveNodes(), Nodes0);
  EXPECT_EQ(I.runtime().graph().numLiveEdges(), Edges0);
  EXPECT_TRUE(I.runtime().graph().verify().empty());
  EXPECT_EQ(I.call("RootHeight").Int, 6);
  ASSERT_FALSE(I.failed()) << I.errorMessage();

  // The tree is still fully functional afterwards.
  I.call("GrowLeft", {IV(2)});
  EXPECT_EQ(I.call("RootHeight").Int, 8);
}

} // namespace
} // namespace alphonse::interp
