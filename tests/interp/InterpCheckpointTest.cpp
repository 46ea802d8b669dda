//===- InterpCheckpointTest.cpp - Interpreter checkpoint tests ------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checkpoint save/restore at the interpreter tier: globals, heap objects
/// (including object-to-object references) and print() output survive a
/// roundtrip into a fresh interpreter over the same compiled module, under
/// either execution mode. The graph is not saved: a restored interpreter
/// starts with none and answers as the saved one did. Checkpoints from a
/// different module are refused with a structured error, as are saving
/// inside a batch and restoring into an interpreter that has already run.
/// Change records round-trip through random scripts with rolled-back
/// batches, carry the output printed between them, survive a failed
/// append, and are refused when malformed or appended to a file that is
/// not the interpreter's. alphonsec's checkpoint options keep output
/// across restores and survive a kill at every checkpoint I/O step.
///
//===----------------------------------------------------------------------===//

#include "interp/Alphonsec.h"
#include "interp/Interp.h"
#include "lang/CompileTestHelper.h"
#include "lang/Types.h"
#include "support/CheckpointIO.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

namespace alphonse::interp {
namespace {

using testing::compile;
using testing::runAlphonsec;

static Value IV(long X) { return Value::integer(X); }

static Value BV(bool X) { return Value::boolean(X); }

/// A unique temp path per test, removed (with its temp file) on exit.
class TempCheckpoint {
public:
  explicit TempCheckpoint(const std::string &Stem) {
    const char *Dir = std::getenv("TMPDIR");
    Path = std::string(Dir ? Dir : "/tmp") + "/" + Stem + "." +
           std::to_string(::getpid()) + ".ckpt";
  }
  ~TempCheckpoint() {
    std::remove(Path.c_str());
    std::remove((Path + ".tmp").c_str());
  }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

// Globals, a two-object heap reachable from a global, a cached procedure
// over both, and plain mutators.
const char *LedgerProgram = R"(
TYPE Node = OBJECT
  val : INTEGER;
  next : Node;
END;

VAR x : INTEGER := 1;
VAR root : Node;

(*CACHED*) PROCEDURE Total(k : INTEGER) : INTEGER =
BEGIN
  RETURN x + root.val + root.next.val + k;
END Total;

PROCEDURE Init() =
VAR n : Node;
BEGIN
  root := NEW(Node);
  root.val := 10;
  n := NEW(Node);
  n.val := 20;
  root.next := n;
END Init;

PROCEDURE SetX(v : INTEGER) = BEGIN x := v; END SetX;
PROCEDURE SetVal(v : INTEGER) = BEGIN root.val := v; END SetVal;
PROCEDURE Hello() = BEGIN print("hello"); END Hello;
)";

/// Every global and every heap field of \p I, object references written
/// as heap indices: equal strings mean equal storage, object by object.
std::string storageOf(Interp &I, const lang::Module &M) {
  std::string S;
  auto Put = [&S](const std::string &Name, const Value &V) {
    // Appended piece by piece: GCC 12 reports a false -Wrestrict on
    // "=#" + std::to_string(...) in a Release build.
    S += Name;
    if (V.K == Value::Kind::Object) {
      S += "=#";
      S += std::to_string(V.Obj->index());
    } else {
      S += '=';
      S += V.render();
    }
    S += ';';
  };
  for (const lang::GlobalDecl &G : M.Globals)
    Put(G.Name, I.global(G.Name));
  for (size_t H = 0; H < I.heapSize(); ++H) {
    Value O = I.heapObject(H);
    S += "\n#" + std::to_string(H) + " " + O.Obj->type()->Name + ":";
    for (const lang::FieldInfo &F : O.Obj->type()->Fields)
      Put(F.Name, I.field(O, F.Name));
  }
  return S;
}

TEST(InterpCheckpointTest, RoundtripPreservesGlobalsHeapCachesAndOutput) {
  TempCheckpoint File("interp-ckpt-roundtrip");
  auto C = compile(LedgerProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();

  Interp A(C->M, C->Info, ExecMode::Alphonse);
  A.call("Init");
  A.call("Hello");
  EXPECT_EQ(A.call("Total", {IV(5)}).Int, 1 + 10 + 20 + 5);
  EXPECT_EQ(A.call("Total", {IV(7)}).Int, 1 + 10 + 20 + 7);
  A.call("SetX", {IV(100)}); // Both cached instances go stale.
  A.saveCheckpoint(File.path());

  Interp B(C->M, C->Info, ExecMode::Alphonse);
  B.restoreCheckpoint(File.path());
  EXPECT_TRUE(B.restoreNote().empty());
  EXPECT_TRUE(B.runtime().graph().verify().empty());
  EXPECT_EQ(B.global("x").Int, 100);
  EXPECT_EQ(B.field(B.global("root"), "val").Int, 10);
  EXPECT_EQ(B.field(B.field(B.global("root"), "next"), "val").Int, 20);
  EXPECT_EQ(B.output(), "hello\n");
  EXPECT_EQ(B.call("Total", {IV(5)}).Int, 100 + 10 + 20 + 5);

  // The restored interpreter keeps working incrementally.
  B.call("SetVal", {IV(-3)});
  EXPECT_EQ(B.call("Total", {IV(5)}).Int, 100 - 3 + 20 + 5);
  EXPECT_FALSE(B.failed());
}

TEST(InterpCheckpointTest, DeltaRoundtrip) {
  TempCheckpoint File("interp-ckpt-delta");
  auto C = compile(LedgerProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();

  Interp A(C->M, C->Info, ExecMode::Alphonse);
  A.call("Init");
  EXPECT_EQ(A.call("Total", {IV(0)}).Int, 31);
  A.saveCheckpoint(File.path());

  A.call("SetX", {IV(50)});
  A.appendDelta(File.path());
  A.call("SetVal", {IV(11)});
  A.call("SetX", {IV(60)});
  A.appendDelta(File.path());
  long Want = A.call("Total", {IV(2)}).Int;
  EXPECT_EQ(Want, 60 + 11 + 20 + 2);

  Interp B(C->M, C->Info, ExecMode::Alphonse);
  B.restoreCheckpoint(File.path());
  EXPECT_TRUE(B.restoreNote().empty());
  EXPECT_TRUE(B.runtime().graph().verify().empty());
  EXPECT_EQ(B.global("x").Int, 60);
  EXPECT_EQ(B.call("Total", {IV(2)}).Int, Want);
}

// Maintained *methods* table their implementing procedure, whose own
// pragma is not incremental (the binding's is) — a restored interpreter
// rebuilds those tables on first demand, with the binding's strategy.
TEST(InterpCheckpointTest, MaintainedMethodTablesRoundtrip) {
  TempCheckpoint File("interp-ckpt-methods");
  auto C = compile(testing::heightTreeProgram());
  ASSERT_TRUE(C->ok()) << C->Diags.str();

  Interp A(C->M, C->Info, ExecMode::Alphonse);
  A.call("BuildChain", {IV(8)});
  EXPECT_EQ(A.call("RootHeight").Int, 8);
  A.call("GrowLeft", {IV(3)});
  A.saveCheckpoint(File.path());
  EXPECT_EQ(A.call("RootHeight").Int, 11);

  Interp B(C->M, C->Info, ExecMode::Alphonse);
  B.restoreCheckpoint(File.path());
  EXPECT_TRUE(B.runtime().graph().verify().empty());
  EXPECT_EQ(B.call("RootHeight").Int, 11);
  B.call("GrowLeft", {IV(2)});
  EXPECT_EQ(B.call("RootHeight").Int, 13);
  EXPECT_FALSE(B.failed());
}

TEST(InterpCheckpointTest, WrongModuleIsRejected) {
  TempCheckpoint File("interp-ckpt-wrong-module");
  auto C = compile(LedgerProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  {
    Interp A(C->M, C->Info, ExecMode::Alphonse);
    A.call("Init");
    A.saveCheckpoint(File.path());
  }

  auto Other = compile(testing::heightTreeProgram());
  ASSERT_TRUE(Other->ok()) << Other->Diags.str();
  Interp B(Other->M, Other->Info, ExecMode::Alphonse);
  try {
    B.restoreCheckpoint(File.path());
    FAIL() << "a checkpoint from a different module must be refused";
  } catch (const CheckpointError &E) {
    EXPECT_EQ(E.code(), CkptError::Malformed);
  }
}

// The graph is derived state: a restored interpreter holds no node until
// its first call, and that call answers as the saved interpreter did.
TEST(InterpCheckpointTest, RestoredGraphStartsEmpty) {
  TempCheckpoint File("interp-ckpt-empty-graph");
  auto C = compile(LedgerProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();

  Interp A(C->M, C->Info, ExecMode::Alphonse);
  A.call("Init");
  long Five = A.call("Total", {IV(5)}).Int;
  long Seven = A.call("Total", {IV(7)}).Int;
  ASSERT_GT(A.runtime().graph().numLiveNodes(), 0u);
  A.saveCheckpoint(File.path());

  Interp B(C->M, C->Info, ExecMode::Alphonse);
  B.restoreCheckpoint(File.path());
  EXPECT_EQ(B.runtime().graph().numLiveNodes(), 0u);
  EXPECT_EQ(B.call("Total", {IV(5)}).Int, Five);
  EXPECT_EQ(B.call("Total", {IV(7)}).Int, Seven);
  EXPECT_GT(B.runtime().graph().numLiveNodes(), 0u);
  EXPECT_FALSE(B.failed()) << B.errorMessage();
}

// By Theorem 5.1 a store restores under either mode: a snapshot taken in
// one mode loads into an interpreter of the other, with equal storage,
// output and answers.
TEST(InterpCheckpointTest, SnapshotRestoresUnderEitherMode) {
  auto C = compile(LedgerProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  for (ExecMode From : {ExecMode::Alphonse, ExecMode::Conventional}) {
    ExecMode To = From == ExecMode::Alphonse ? ExecMode::Conventional
                                             : ExecMode::Alphonse;
    TempCheckpoint File("interp-ckpt-mode");
    Interp A(C->M, C->Info, From);
    A.call("Init");
    A.call("Hello");
    A.call("Total", {IV(1)});
    A.call("SetX", {IV(40)});
    A.call("SetVal", {IV(-2)});
    A.saveCheckpoint(File.path());

    Interp B(C->M, C->Info, To);
    B.restoreCheckpoint(File.path());
    EXPECT_EQ(storageOf(B, C->M), storageOf(A, C->M));
    EXPECT_EQ(B.output(), A.output());
    for (long K : {0, 3, 9})
      EXPECT_EQ(B.call("Total", {IV(K)}), A.call("Total", {IV(K)}))
          << "k " << K;
    B.call("SetX", {IV(1)});
    A.call("SetX", {IV(1)});
    EXPECT_EQ(B.call("Total", {IV(2)}), A.call("Total", {IV(2)}));
    EXPECT_FALSE(B.failed()) << B.errorMessage();
  }
}

// Quarantine is graph state and is not saved: an instance quarantined by
// a one-shot fault before the save simply recomputes after a restore.
TEST(InterpCheckpointTest, QuarantinedInstanceRecomputesAfterRestore) {
  TempCheckpoint File("interp-ckpt-quarantine");
  auto C = compile(LedgerProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();

  Interp A(C->M, C->Info, ExecMode::Alphonse);
  A.call("Init");
  {
    FaultInjector FI;
    FI.armThrow("Total", 1);
    FaultInjector::Scope Scope(FI);
    A.call("Total", {IV(5)});
  }
  ASSERT_TRUE(A.failed());
  ASSERT_EQ(A.runtime().graph().numQuarantined(), 1u);
  A.clearError();
  A.saveCheckpoint(File.path());

  Interp B(C->M, C->Info, ExecMode::Alphonse);
  B.restoreCheckpoint(File.path());
  EXPECT_EQ(B.call("Total", {IV(5)}).Int, 1 + 10 + 20 + 5);
  EXPECT_FALSE(B.failed()) << B.errorMessage();
  EXPECT_EQ(B.runtime().graph().numQuarantined(), 0u);
}

// A snapshot is a quiescent cut of the program state: inside an open
// batch the save is refused, and the file keeps the previous snapshot.
TEST(InterpCheckpointTest, SaveInsideABatchIsBusy) {
  TempCheckpoint File("interp-ckpt-save-batch");
  auto C = compile(LedgerProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();

  Interp A(C->M, C->Info, ExecMode::Alphonse);
  A.call("Init");
  A.call("SetX", {IV(7)});
  A.saveCheckpoint(File.path());
  {
    Transaction Txn(A.runtime());
    A.call("SetX", {IV(8)});
    try {
      A.saveCheckpoint(File.path());
      ADD_FAILURE() << "a save inside an open batch must be refused";
    } catch (const CheckpointError &E) {
      EXPECT_EQ(E.code(), CkptError::Busy);
    }
    Txn.rollback();
  }

  Interp B(C->M, C->Info, ExecMode::Alphonse);
  B.restoreCheckpoint(File.path());
  EXPECT_EQ(B.global("x").Int, 7);
  EXPECT_EQ(B.call("Total", {IV(0)}).Int, 7 + 10 + 20);
}

TEST(InterpCheckpointTest, RestoreIntoUsedInterpreterIsBusy) {
  TempCheckpoint File("interp-ckpt-busy");
  auto C = compile(LedgerProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  {
    Interp A(C->M, C->Info, ExecMode::Alphonse);
    A.call("Init");
    A.call("Total", {IV(1)});
    A.saveCheckpoint(File.path());
  }

  Interp B(C->M, C->Info, ExecMode::Alphonse);
  B.call("Init"); // Tracked state exists now; restore must refuse.
  B.call("Total", {IV(1)});
  try {
    B.restoreCheckpoint(File.path());
    FAIL() << "restore into a used interpreter must be refused";
  } catch (const CheckpointError &E) {
    EXPECT_EQ(E.code(), CkptError::Busy);
  }
}

// Algorithm 11's AVL tree with deletion, plus a cone of cached procedures
// over globals: every kind of storage write a change record carries
// (fields, globals, objects allocated along the way).
const char *AvlConeProgram = R"(
TYPE Tree = OBJECT
  left, right : Tree;
  key : INTEGER;
METHODS
  (*MAINTAINED*) height() : INTEGER := Height;
  (*MAINTAINED*) balance() : Tree := Balance;
END;

TYPE TreeNil = Tree OBJECT
OVERRIDES
  (*MAINTAINED*) height := HeightNil;
  (*MAINTAINED*) balance := BalanceNil;
END;

VAR nil : Tree;
VAR root : Tree;
VAR g0, g1, g2 : INTEGER;
VAR label : TEXT := "t";

PROCEDURE Height(t : Tree) : INTEGER =
BEGIN
  RETURN max(t.left.height(), t.right.height()) + 1;
END Height;

PROCEDURE HeightNil(t : Tree) : INTEGER = BEGIN RETURN 0; END HeightNil;

PROCEDURE Diff(t : Tree) : INTEGER =
BEGIN
  RETURN t.left.height() - t.right.height();
END Diff;

PROCEDURE RotateRight(t : Tree) : Tree =
VAR s, b : Tree;
BEGIN
  s := t.left;
  b := s.right;
  s.right := t;
  t.left := b;
  RETURN s;
END RotateRight;

PROCEDURE RotateLeft(t : Tree) : Tree =
VAR s, b : Tree;
BEGIN
  s := t.right;
  b := s.left;
  s.left := t;
  t.right := b;
  RETURN s;
END RotateLeft;

PROCEDURE Balance(t : Tree) : Tree =
VAR u : Tree;
BEGIN
  t.left := t.left.balance();
  t.right := t.right.balance();
  u := t;
  IF Diff(u) > 1 THEN
    IF Diff(u.left) < 0 THEN
      u.left := RotateLeft(u.left);
    END;
    u := RotateRight(u);
    RETURN u.balance();
  ELSIF Diff(u) < -1 THEN
    IF Diff(u.right) > 0 THEN
      u.right := RotateRight(u.right);
    END;
    u := RotateLeft(u);
    RETURN u.balance();
  END;
  RETURN u;
END Balance;

PROCEDURE BalanceNil(t : Tree) : Tree = BEGIN RETURN t; END BalanceNil;

PROCEDURE Init() =
BEGIN
  nil := NEW(TreeNil);
  root := nil;
  print("init");
END Init;

PROCEDURE Leaf(k : INTEGER) : Tree =
VAR p : Tree;
BEGIN
  p := NEW(Tree);
  p.key := k;
  p.left := nil;
  p.right := nil;
  RETURN p;
END Leaf;

PROCEDURE Insert(k : INTEGER) =
VAR t : Tree;
BEGIN
  IF root = nil THEN
    root := Leaf(k);
    RETURN;
  END;
  t := root;
  WHILE TRUE DO
    IF k = t.key THEN
      RETURN;
    END;
    IF k < t.key THEN
      IF t.left = nil THEN
        t.left := Leaf(k);
        RETURN;
      END;
      t := t.left;
    ELSE
      IF t.right = nil THEN
        t.right := Leaf(k);
        RETURN;
      END;
      t := t.right;
    END;
  END;
END Insert;

PROCEDURE Remove(t : Tree; k : INTEGER) : Tree =
VAR m : Tree;
BEGIN
  IF t = nil THEN
    RETURN nil;
  END;
  IF k < t.key THEN
    t.left := Remove(t.left, k);
    RETURN t;
  END;
  IF t.key < k THEN
    t.right := Remove(t.right, k);
    RETURN t;
  END;
  IF t.left = nil THEN
    RETURN t.right;
  END;
  IF t.right = nil THEN
    RETURN t.left;
  END;
  m := t.right;
  WHILE m.left # nil DO
    m := m.left;
  END;
  t.key := m.key;
  t.right := Remove(t.right, m.key);
  RETURN t;
END Remove;

PROCEDURE Erase(k : INTEGER) = BEGIN root := Remove(root, k); END Erase;

PROCEDURE Contains(k : INTEGER) : BOOLEAN =
VAR t : Tree;
BEGIN
  root := root.balance();
  t := root;
  WHILE t # nil DO
    IF k = t.key THEN
      RETURN TRUE;
    END;
    IF k < t.key THEN
      t := t.left;
    ELSE
      t := t.right;
    END;
  END;
  RETURN FALSE;
END Contains;

(*CACHED*) PROCEDURE Lo() : INTEGER = BEGIN RETURN g0 + g1; END Lo;
(*CACHED*) PROCEDURE Hi() : INTEGER = BEGIN RETURN g1 * g2; END Hi;
(*CACHED*) PROCEDURE All() : INTEGER = BEGIN RETURN Lo() + Hi(); END All;

PROCEDURE Poke(i, v : INTEGER) =
BEGIN
  IF i = 0 THEN g0 := v;
  ELSIF i = 1 THEN g1 := v;
  ELSE g2 := v;
  END;
  label := label & fmt(i);
END Poke;
)";

/// One random script step over AvlConeProgram; \returns its answer.
Value randomOp(Interp &I, std::mt19937 &Rng) {
  long Key = static_cast<long>(Rng() % 120);
  switch (Rng() % 5) {
  case 0:
    I.call("Insert", {IV(Key)});
    return Value();
  case 1:
    I.call("Erase", {IV(Key)});
    return Value();
  case 2:
    I.call("Poke", {IV(Key % 3), IV(Key)});
    return Value();
  case 3:
    return I.call("Contains", {IV(Key)});
  default:
    return I.call("All");
  }
}

// A tree of 480 keys, rebalanced before the snapshot: the rebalance's
// re-entrant balance() reads leave inverted levels on Balance -> Balance
// edges, which verify() exempts only while the source carries its
// ReadMidExecution flag. The restored interpreter rebuilds those edges,
// flags included, by running the rebalance itself.
TEST(InterpCheckpointTest, RebalancedAvlTreeRoundtrips) {
  TempCheckpoint File("interp-ckpt-avl");
  auto C = compile(AvlConeProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();

  Interp A(C->M, C->Info, ExecMode::Alphonse);
  A.call("Init");
  std::vector<long> Keys(480);
  for (size_t I = 0; I < Keys.size(); ++I)
    Keys[I] = static_cast<long>(2 * I);
  std::shuffle(Keys.begin(), Keys.end(), std::mt19937(7));
  for (long K : Keys)
    A.call("Insert", {IV(K)});
  EXPECT_EQ(A.call("Contains", {IV(Keys[0])}), BV(true));
  for (long K = 1; K < 200; K += 40)
    A.call("Insert", {IV(K)});
  EXPECT_EQ(A.call("Contains", {IV(1)}), BV(true));
  ASSERT_FALSE(A.failed()) << A.errorMessage();
  A.saveCheckpoint(File.path());

  Interp B(C->M, C->Info, ExecMode::Alphonse);
  B.restoreCheckpoint(File.path());
  EXPECT_TRUE(B.runtime().graph().verify().empty());
  EXPECT_EQ(storageOf(B, C->M), storageOf(A, C->M));
  for (long K = 0; K < 1000; K += 3)
    EXPECT_EQ(B.call("Contains", {IV(K)}), A.call("Contains", {IV(K)}))
        << "key " << K;
  EXPECT_FALSE(B.failed()) << B.errorMessage();
}

// Seeded random scripts with a change record every k ops, some ops
// inside batches that roll back, and restores into fresh interpreters at
// random points: each restore must reproduce the live storage, output and
// graph health, and then answer the next ops exactly as the live one does.
TEST(InterpCheckpointTest, RandomScriptsRoundtripThroughChangeRecords) {
  auto C = compile(AvlConeProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  int Restores = 0;
  for (unsigned Seed = 1; Seed <= 4; ++Seed) {
    TempCheckpoint File("interp-ckpt-prop" + std::to_string(Seed));
    std::mt19937 Rng(Seed);
    Interp Live(C->M, C->Info, ExecMode::Alphonse);
    Live.call("Init");
    for (int I = 0; I < 40; ++I)
      Live.call("Insert", {IV(static_cast<long>(Rng() % 120))});
    Live.saveCheckpoint(File.path());
    unsigned Every = 1 + Seed % 4;

    for (unsigned Op = 1; Op <= 240; ++Op) {
      if (Rng() % 6 == 0) {
        Transaction Txn(Live.runtime());
        randomOp(Live, Rng);
        randomOp(Live, Rng);
        Txn.rollback();
      } else {
        randomOp(Live, Rng);
      }
      ASSERT_FALSE(Live.failed()) << Live.errorMessage();
      if (Op % Every == 0)
        Live.appendDelta(File.path());
      if (Rng() % 20 != 0)
        continue;

      Live.appendDelta(File.path());
      Interp Restored(C->M, C->Info, ExecMode::Alphonse);
      Restored.restoreCheckpoint(File.path());
      ++Restores;
      ASSERT_TRUE(Restored.restoreNote().empty()) << Restored.restoreNote();
      ASSERT_TRUE(Restored.runtime().graph().verify().empty())
          << "seed " << Seed << " op " << Op;
      ASSERT_EQ(storageOf(Restored, C->M), storageOf(Live, C->M))
          << "seed " << Seed << " op " << Op;
      ASSERT_EQ(Restored.output(), Live.output());
      for (int Later = 0; Later < 6; ++Later) {
        std::mt19937 Fork = Rng;
        Value Want = randomOp(Live, Rng);
        ASSERT_EQ(randomOp(Restored, Fork), Want)
            << "seed " << Seed << " op " << Op << " +" << Later;
      }
      ASSERT_FALSE(Restored.failed()) << Restored.errorMessage();
    }
  }
  EXPECT_GT(Restores, 20);
}

// An append that fails at any of its four I/O steps: a restore then sees
// the last complete record (the failed one too, if all its bytes
// landed), and the next append in the same process repairs the torn tail
// and writes a record that also covers the failed one's changes.
TEST(InterpCheckpointTest, FailedAppendIsRepairedByTheNext) {
  auto C = compile(AvlConeProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  for (uint64_t Step = 1; Step <= 4; ++Step) {
    TempCheckpoint File("interp-ckpt-fault" + std::to_string(Step));
    Interp Live(C->M, C->Info, ExecMode::Alphonse);
    Live.call("Init");
    for (long K : {50, 20, 70, 10, 30})
      Live.call("Insert", {IV(K)});
    Live.saveCheckpoint(File.path());
    Live.call("Insert", {IV(60)});
    Live.call("Poke", {IV(0), IV(5)});
    Live.appendDelta(File.path());
    std::string Durable = storageOf(Live, C->M);

    Live.call("Insert", {IV(80)}); // Allocates: the records must agree.
    Live.call("Contains", {IV(80)});
    Live.call("Poke", {IV(1), IV(7)});
    std::string Attempted = storageOf(Live, C->M);
    {
      FaultInjector FI;
      FI.armThrow("ckpt.delta.io", Step);
      FaultInjector::Scope Scope(FI);
      EXPECT_THROW(Live.appendDelta(File.path()), InjectedFault)
          << "step " << Step;
    }
    {
      Interp R(C->M, C->Info, ExecMode::Alphonse);
      R.restoreCheckpoint(File.path());
      EXPECT_EQ(storageOf(R, C->M), Step == 4 ? Attempted : Durable)
          << "step " << Step;
      // Only a throw between header and payload leaves a torn tail.
      EXPECT_EQ(R.restoreNote().empty(), Step != 3) << R.restoreNote();
    }

    Live.call("Insert", {IV(90)});
    Live.call("Erase", {IV(20)});
    Live.appendDelta(File.path());
    Interp R(C->M, C->Info, ExecMode::Alphonse);
    R.restoreCheckpoint(File.path());
    EXPECT_TRUE(R.restoreNote().empty()) << "step " << Step;
    EXPECT_TRUE(R.runtime().graph().verify().empty()) << "step " << Step;
    EXPECT_EQ(storageOf(R, C->M), storageOf(Live, C->M)) << "step " << Step;
    for (long K : {10, 20, 60, 80, 90})
      EXPECT_EQ(R.call("Contains", {IV(K)}), Live.call("Contains", {IV(K)}))
          << "step " << Step << " key " << K;
    EXPECT_EQ(R.call("All"), Live.call("All"));
  }
}

// Hand-built change records that name storage the heap does not have
// (or types the module does not) must be refused as Malformed, never
// applied and never crash.
TEST(InterpCheckpointTest, MalformedChangeRecordsAreRejected) {
  TempCheckpoint File("interp-ckpt-malformed");
  auto C = compile(AvlConeProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  uint32_t Heap = 0;
  {
    Interp A(C->M, C->Info, ExecMode::Alphonse);
    A.call("Init");
    A.call("Insert", {IV(1)});
    A.saveCheckpoint(File.path());
    Heap = static_cast<uint32_t>(A.heapSize());
  }
  ASSERT_EQ(Heap, 2u); // The TreeNil sentinel and one Tree.
  const auto BaseBytes = std::filesystem::file_size(File.path());
  const uint32_t Global = UINT32_MAX;

  auto Record = [&](uint32_t First, std::vector<std::string> Types,
                    uint32_t Owner, uint32_t Index, uint32_t ObjValue) {
    ByteWriter B;
    B.u32(First);
    B.u32(static_cast<uint32_t>(Types.size()));
    for (const std::string &T : Types)
      B.str(T);
    B.u32(1);
    B.u32(Owner);
    B.u32(Index);
    B.u8(static_cast<uint8_t>(Value::Kind::Object));
    B.u32(ObjValue);
    B.str(""); // No output, not failed.
    B.u8(0);
    B.str("");
    return B.take();
  };
  struct Case {
    const char *What;
    std::vector<uint8_t> Payload;
  };
  std::vector<Case> Cases = {
      {"object index", Record(Heap, {}, Heap, 0, 0)},
      {"field index", Record(Heap, {}, 1, 3, 0)},
      {"global index", Record(Heap, {}, Global, 99, 0)},
      {"object value", Record(Heap, {"Tree"}, Global, 1, Heap + 1)},
      {"unknown type", Record(Heap, {"Forest"}, Global, 1, 0)},
      {"heap gap", Record(Heap + 1, {"Tree"}, Global, 1, 0)},
      {"retyped object", Record(0, {"Tree"}, Global, 1, 0)},
  };
  std::vector<uint8_t> Trailing = Record(Heap, {"Tree"}, Global, 1, Heap);
  Trailing.push_back(0);
  Cases.push_back({"trailing bytes", Trailing});
  std::vector<uint8_t> BadFlag = Record(Heap, {"Tree"}, Global, 1, Heap);
  BadFlag[BadFlag.size() - 5] = 2;
  Cases.push_back({"failed flag", BadFlag});
  // Cuts the file back to its base record, then appends \p Payload.
  auto AppendOne = [&](const std::vector<uint8_t> &Payload) {
    std::filesystem::resize_file(File.path(), BaseBytes);
    DeltaAppender Log{CheckpointReader(File.path())};
    Log.append(Payload);
  };
  // The same well-formed record restores.
  {
    AppendOne(Record(Heap, {"Tree"}, Global, 1, Heap));
    Interp B(C->M, C->Info, ExecMode::Alphonse);
    B.restoreCheckpoint(File.path());
    EXPECT_EQ(B.global("root").Obj->index(), Heap);
  }

  for (const Case &K : Cases) {
    AppendOne(K.Payload);
    Interp B(C->M, C->Info, ExecMode::Alphonse);
    try {
      B.restoreCheckpoint(File.path());
      ADD_FAILURE() << K.What << ": a malformed record must be refused";
    } catch (const CheckpointError &E) {
      EXPECT_EQ(E.code(), CkptError::Malformed) << K.What << ": " << E.what();
    }
  }

  // The base record goes through the same checks, from an empty heap:
  // rewrite the file around hand-built base records.
  const uint32_t TagBase = sectionTag('B', 'A', 'S', 'E');
  auto WriteSnapshot = [&](uint64_t Fingerprint, std::vector<uint8_t> Rec) {
    ByteWriter Base;
    Base.u64(Fingerprint);
    std::vector<uint8_t> Bytes = Base.take();
    Bytes.insert(Bytes.end(), Rec.begin(), Rec.end());
    CheckpointWriter W;
    W.addSection(TagBase, std::move(Bytes));
    W.writeFile(File.path());
  };
  uint64_t Avl = CheckpointReader(File.path()).section(TagBase).u64();
  std::vector<Case> BaseCases = {
      {"base object index", Record(0, {"TreeNil"}, 1, 0, 0)},
      {"base global index", Record(0, {"TreeNil"}, Global, 99, 0)},
      {"base heap gap", Record(1, {"TreeNil"}, Global, 1, 0)},
  };
  for (const Case &K : BaseCases) {
    WriteSnapshot(Avl, K.Payload);
    Interp B(C->M, C->Info, ExecMode::Alphonse);
    try {
      B.restoreCheckpoint(File.path());
      ADD_FAILURE() << K.What << ": a malformed record must be refused";
    } catch (const CheckpointError &E) {
      EXPECT_EQ(E.code(), CkptError::Malformed) << K.What << ": " << E.what();
    }
  }

  // A base record that omits a global leaves it at its zero value: not at
  // what the fresh interpreter's initializers stored, and never at an
  // object of the heap the restore discards.
  auto Boxed = compile(R"(
TYPE Box = OBJECT
  v : INTEGER;
END;
VAR spare : Box := NEW(Box);
VAR n : INTEGER := 7;
VAR keep : Box;
)");
  ASSERT_TRUE(Boxed->ok()) << Boxed->Diags.str();
  {
    Interp A(Boxed->M, Boxed->Info, ExecMode::Alphonse);
    A.saveCheckpoint(File.path());
  }
  // One Box, and keep (global 2) pointing at it; spare and n omitted.
  WriteSnapshot(CheckpointReader(File.path()).section(TagBase).u64(),
                Record(0, {"Box"}, Global, 2, 0));
  Interp B(Boxed->M, Boxed->Info, ExecMode::Alphonse);
  ASSERT_EQ(B.global("n").Int, 7);
  ASSERT_EQ(B.global("spare").K, Value::Kind::Object);
  B.restoreCheckpoint(File.path());
  EXPECT_EQ(B.heapSize(), 1u);
  EXPECT_EQ(B.global("spare").K, Value::Kind::Nil);
  EXPECT_EQ(B.global("n").Int, 0);
  ASSERT_EQ(B.global("keep").K, Value::Kind::Object);
  EXPECT_EQ(B.global("keep").Obj->index(), 0u);
}

// A change record extends the snapshot its interpreter last saved or
// restored, so an append anywhere else is refused.
TEST(InterpCheckpointTest, AppendNeedsTheInterpretersOwnBase) {
  TempCheckpoint File("interp-ckpt-own-base");
  TempCheckpoint Other("interp-ckpt-other-base");
  auto C = compile(LedgerProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  Interp A(C->M, C->Info, ExecMode::Alphonse);
  A.call("Init");
  try {
    A.appendDelta(File.path());
    FAIL() << "an append before any snapshot must be refused";
  } catch (const CheckpointError &E) {
    EXPECT_EQ(E.code(), CkptError::StaleDelta);
  }
  A.saveCheckpoint(File.path());
  A.saveCheckpoint(Other.path());
  A.call("SetX", {IV(9)});
  try {
    A.appendDelta(File.path());
    FAIL() << "an append to a superseded base must be refused";
  } catch (const CheckpointError &E) {
    EXPECT_EQ(E.code(), CkptError::StaleDelta);
  }
  A.appendDelta(Other.path());

  // The snapshot file replaced behind the appender's back.
  Interp B(C->M, C->Info, ExecMode::Alphonse);
  B.call("Init");
  B.saveCheckpoint(Other.path());
  A.call("SetX", {IV(10)});
  try {
    A.appendDelta(Other.path());
    FAIL() << "an append to a replaced snapshot must be refused";
  } catch (const CheckpointError &E) {
    EXPECT_EQ(E.code(), CkptError::StaleDelta);
  }
}

// Output is program state (Theorem 5.1 compares it): each record carries
// what print() emitted since the previous one, and the failed flag and
// message as they stand at that record.
TEST(InterpCheckpointTest, OutputTravelsWithChangeRecords) {
  TempCheckpoint File("interp-ckpt-output");
  auto C = compile(LedgerProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  auto ExpectRestoresAs = [&](const Interp &Live) {
    Interp R(C->M, C->Info, ExecMode::Alphonse);
    R.restoreCheckpoint(File.path());
    EXPECT_EQ(R.output(), Live.output());
    EXPECT_EQ(R.failed(), Live.failed());
    EXPECT_EQ(R.errorMessage(), Live.errorMessage());
  };

  Interp A(C->M, C->Info, ExecMode::Alphonse);
  A.call("Hello");
  A.saveCheckpoint(File.path());
  A.call("Hello"); // Between the base and the first delta.
  A.call("Total", {IV(1)}); // root is NIL: a runtime error.
  ASSERT_TRUE(A.failed());
  A.appendDelta(File.path());
  ExpectRestoresAs(A);

  A.clearError();
  A.call("Init");
  A.call("Hello"); // Between two deltas.
  A.appendDelta(File.path());
  EXPECT_EQ(A.output(), "hello\nhello\nhello\n");
  ExpectRestoresAs(A);
}

// Two interpreters restored from one file both extend it: the first
// append lands, and the second finds the file longer than its records
// and refuses rather than write after a record it never saw.
TEST(InterpCheckpointTest, SecondRestorersAppendIsStale) {
  TempCheckpoint File("interp-ckpt-two-restorers");
  auto C = compile(LedgerProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  {
    Interp A(C->M, C->Info, ExecMode::Alphonse);
    A.call("Init");
    A.saveCheckpoint(File.path());
  }
  Interp First(C->M, C->Info, ExecMode::Alphonse);
  Interp Second(C->M, C->Info, ExecMode::Alphonse);
  First.restoreCheckpoint(File.path());
  Second.restoreCheckpoint(File.path());
  First.call("SetX", {IV(5)});
  First.appendDelta(File.path());
  Second.call("SetX", {IV(6)});
  try {
    Second.appendDelta(File.path());
    FAIL() << "an append after another writer's must be refused";
  } catch (const CheckpointError &E) {
    EXPECT_EQ(E.code(), CkptError::StaleDelta);
  }

  Interp R(C->M, C->Info, ExecMode::Alphonse);
  R.restoreCheckpoint(File.path());
  EXPECT_EQ(R.global("x").Int, 5);
}

const std::string AvlExample = std::string(ALPHONSE_EXAMPLES_DIR) + "/avl.alf";

/// The program output alphonsec printed: from its "--- program output ---"
/// line on ("" if it printed none).
std::string programOutput(const std::string &Out) {
  size_t At = Out.find("--- program output ---");
  return At == std::string::npos ? "" : Out.substr(At);
}

// A restore brings back what the runs after the base printed, not only
// what the base run did.
TEST(InterpCheckpointTest, AlphonsecRestoreKeepsOutputAfterTheBase) {
  TempCheckpoint File("interp-ckpt-cli-output");
  const std::string F = " " + File.path();
  std::string Out;
  ASSERT_EQ(runAlphonsec(AvlExample, "--run Main,20 --checkpoint" + F, Out),
            0)
      << Out;
  EXPECT_EQ(programOutput(Out),
            "--- program output ---\nsearches ok\n5\n");
  Out.clear();
  ASSERT_EQ(runAlphonsec(AvlExample,
                         "--restore" + F + " --run Main,50 --checkpoint-delta" +
                             F,
                         Out),
            0)
      << Out;
  const std::string Both =
      "--- program output ---\nsearches ok\n5\nsearches ok\n7\n";
  EXPECT_EQ(programOutput(Out), Both);
  Out.clear();
  ASSERT_EQ(runAlphonsec(AvlExample, "--restore" + F, Out), 0) << Out;
  EXPECT_EQ(Out, Both);
  // One file holds the base and its delta.
  EXPECT_FALSE(std::filesystem::exists(File.path() + ".delta"));
  EXPECT_FALSE(std::filesystem::exists(File.path() + ".tmp"));
}

// alphonsec --fault-seed N kills the process at checkpoint I/O slot
// N mod 10: a save's "ckpt.io" hits 1-6, then an append's "ckpt.delta.io"
// hits 1-4. After each kill, the next --restore must print the output of
// a state the killed run durably reached, or refuse cleanly where no
// checkpoint ever completed.
TEST(InterpCheckpointTest, AlphonsecFaultSeedSweepRestoresADurableState) {
  TempCheckpoint File("interp-ckpt-fault-seed");
  const std::string F = " " + File.path();
  const std::string Before = "--- program output ---\nsearches ok\n5\n";
  const std::string After = Before + "searches ok\n7\n";
  auto Restore = [&](std::string &Out) {
    int Status = runAlphonsec(AvlExample, "--restore" + F, Out);
    EXPECT_TRUE(WIFEXITED(Status)) << Out; // A crash is a signal.
    return WEXITSTATUS(Status);
  };
  auto ExpectKilled = [](int Status, const std::string &Out) {
    ASSERT_TRUE(WIFEXITED(Status)) << Out;
    EXPECT_EQ(WEXITSTATUS(Status), 137) << Out;
  };

  for (int Seed = 0; Seed < 10; ++Seed) {
    SCOPED_TRACE("fault-seed " + std::to_string(Seed));
    const std::string Kill = " --fault-seed " + std::to_string(Seed);
    bool SaveSlot = Seed < 6;
    std::string Out;
    if (SaveSlot) {
      // The first save dies: nothing durable unless the rename landed.
      std::filesystem::remove(File.path());
      ExpectKilled(runAlphonsec(AvlExample,
                                "--run Main,20 --checkpoint" + F + Kill, Out),
                   Out);
      Out.clear();
      int Status = Restore(Out);
      if (Status == 0) {
        EXPECT_EQ(programOutput(Out), Before);
      } else {
        EXPECT_LT(Seed, 5) << "killed after the rename, yet refused: " << Out;
        EXPECT_EQ(Status, 2) << Out;
        EXPECT_NE(Out.find("checkpoint restore failed"), std::string::npos)
            << Out;
      }
      Out.clear();
    }

    // A durable checkpoint, then a second save or an append that dies.
    ASSERT_EQ(runAlphonsec(AvlExample, "--run Main,20 --checkpoint" + F, Out),
              0)
        << Out;
    Out.clear();
    ExpectKilled(
        runAlphonsec(AvlExample,
                     "--restore" + F + " --run Main,50" +
                         (SaveSlot ? " --checkpoint" : " --checkpoint-delta") +
                         F + Kill,
                     Out),
        Out);
    Out.clear();
    ASSERT_EQ(Restore(Out), 0) << Out;
    std::string Got = programOutput(Out);
    EXPECT_TRUE(Got == Before || Got == After) << Out;
  }
  EXPECT_FALSE(std::filesystem::exists(File.path() + ".delta"));
}

} // namespace
} // namespace alphonse::interp
