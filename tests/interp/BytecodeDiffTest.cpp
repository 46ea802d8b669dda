//===- BytecodeDiffTest.cpp - VM vs reference differential ----------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode VM must be observationally identical to the graph-free
/// reference evaluator (Reference.h): same return values, same print
/// output, same final globals, same runtime errors at the same source
/// locations — in both execution modes, at Workers = 0 and with parallel
/// wave drains. Quarantine and pending work, which the reference does not
/// have, must not depend on the worker count. Every Alphonse-L test
/// program (the canonical height-tree and AVL modules plus the inline
/// corpus below) runs through both with identical driver scripts,
/// including fixed-seed randomized interleavings, and the vm.*
/// fault-injection sites are exercised for quarantine/recovery behavior.
///
//===----------------------------------------------------------------------===//

#include "interp/Differential.h"
#include "interp/bytecode/Compiler.h"
#include "support/CheckpointIO.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

namespace alphonse::interp {
namespace {

using testing::checkDifferential;
using testing::compile;
using testing::RunResult;
using testing::Step;

static Value IV(long X) { return Value::integer(X); }

/// Nullary cached procedures over globals. 'unread' is written but never
/// read by any incremental procedure, so it never gets a graph node and
/// its writes must park no work.
static const char *coneProgram() {
  return R"(
VAR
  a, b, scale, unread : INTEGER;

(*CACHED*) PROCEDURE Sum() : INTEGER =
BEGIN
  RETURN a + b;
END Sum;

(*CACHED*) PROCEDURE Scaled() : INTEGER =
BEGIN
  RETURN Sum() * scale;
END Scaled;

(*CACHED*) PROCEDURE Ratio() : INTEGER =
BEGIN
  RETURN Sum() DIV scale;
END Ratio;

PROCEDURE SetA(v : INTEGER) = BEGIN a := v; END SetA;
PROCEDURE SetB(v : INTEGER) = BEGIN b := v; END SetB;
PROCEDURE SetScale(v : INTEGER) = BEGIN scale := v; END SetScale;
PROCEDURE Touch(v : INTEGER) = BEGIN unread := v; END Touch;
)";
}

/// Operator boundaries: every comparison on equal, smaller and larger
/// operands, abs/min/max on negative numbers, and DIV/MOD with negative
/// operands. Each procedure prints its results.
static const char *operatorEdgeProgram() {
  return R"(
PROCEDURE Compare(a, b : INTEGER) =
BEGIN
  print(a < b);
  print(a <= b);
  print(a > b);
  print(a >= b);
  print(a = b);
  print(a # b);
END Compare;
PROCEDURE Numeric(a, b : INTEGER) =
BEGIN
  print(abs(a));
  print(min(a, b));
  print(max(a, b));
  print(a DIV b);
  print(a MOD b);
END Numeric;
)";
}

TEST(BytecodeDiffTest, HeightTreeScript) {
  auto C = compile(testing::heightTreeProgram());
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  checkDifferential(*C, {
                            {"BuildChain", {12}},
                            {"RootHeight", {}},
                            {"GrowLeft", {3}},
                            {"RootHeight", {}},
                            {"GrowLeft", {1}},
                            {"RootHeight", {}},
                        });
}

TEST(BytecodeDiffTest, AvlScriptedInserts) {
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
  checkDifferential(*C, Script);
}

TEST(BytecodeDiffTest, RandomizedAvlInterleavings) {
  auto C = compile(testing::avlProgram());
  ASSERT_TRUE(C->ok());
  for (unsigned Seed = 21; Seed <= 24; ++Seed) {
    std::mt19937 Rng(Seed);
    std::vector<Step> Script = {{"InitTree", {}}};
    for (int I = 0; I < 80; ++I) {
      long K = static_cast<long>(Rng() % 150);
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
    checkDifferential(*C, Script);
  }
}

TEST(BytecodeDiffTest, RandomizedHeightTreeGrowth) {
  auto C = compile(testing::heightTreeProgram());
  ASSERT_TRUE(C->ok());
  for (unsigned Seed = 31; Seed <= 33; ++Seed) {
    std::mt19937 Rng(Seed);
    std::vector<Step> Script = {{"BuildChain", {long(1 + Rng() % 8)}}};
    for (int I = 0; I < 30; ++I) {
      if (Rng() % 2 == 0)
        Script.push_back({"GrowLeft", {long(1 + Rng() % 3)}});
      else
        Script.push_back({"RootHeight", {}});
    }
    checkDifferential(*C, Script);
  }
}

TEST(BytecodeDiffTest, CachedFibWithPrints) {
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
  checkDifferential(*C, {{"Show", {10}}, {"Show", {15}}, {"Show", {10}}});
}

TEST(BytecodeDiffTest, NullaryCachedCone) {
  auto C = compile(coneProgram());
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  std::vector<Step> Script = {
      {"SetA", {3}},
      {"SetB", {4}},
      {"SetScale", {2}},
      {"Sum", {}},
      {"Scaled", {}},
      {"Ratio", {}},
      {"SetA", {10}},
      {"Sum", {}},
      {"Scaled", {}},
      {"Touch", {99}},
      {"Sum", {}},
      {"Touch", {7}},
  };
  checkDifferential(*C, Script);
  // Every reader is up to date before the last write, which goes to a
  // global nothing reads: no work may be left pending.
  RunResult VM = testing::runVM(*C, Script, ExecMode::Alphonse, 0);
  EXPECT_EQ(VM.Rendered[10], "14");
  EXPECT_EQ(VM.Pending, 0u);
}

TEST(BytecodeDiffTest, NullaryCachedConeFaultsAgree) {
  // scale starts at 0: the first Ratio call divides by zero.
  auto C = compile(coneProgram());
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  std::vector<Step> Script = {
      {"SetA", {6}},
      {"SetB", {2}},
      {"Sum", {}},
      {"Ratio", {}}, // division by zero
  };
  checkDifferential(*C, Script);
  RunResult VM = testing::runVM(*C, Script, ExecMode::Alphonse, 0);
  EXPECT_TRUE(VM.Failed);
  EXPECT_EQ(VM.Quarantined, 1u);
}

TEST(BytecodeDiffTest, RandomizedNullaryConeInterleavings) {
  auto C = compile(coneProgram());
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  for (unsigned Seed = 41; Seed <= 45; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    std::mt19937 Rng(Seed);
    std::vector<Step> Script = {{"SetScale", {1 + long(Rng() % 5)}}};
    for (int I = 0; I < 60; ++I) {
      switch (Rng() % 8) {
      case 0:
        Script.push_back({"SetA", {long(Rng() % 100)}});
        break;
      case 1:
        Script.push_back({"SetB", {long(Rng() % 100)}});
        break;
      case 2:
        // Occasionally zero: later Ratio calls fault, and the VM must
        // agree with the reference on exactly when.
        Script.push_back({"SetScale", {long(Rng() % 4)}});
        break;
      case 3:
        Script.push_back({"Touch", {long(Rng() % 100)}});
        break;
      case 4:
        Script.push_back({"Sum", {}});
        break;
      case 5:
        Script.push_back({"Scaled", {}});
        break;
      default:
        Script.push_back({"Ratio", {}});
        break;
      }
    }
    checkDifferential(*C, Script);
  }
}

TEST(BytecodeDiffTest, OperatorsAndControlFlow) {
  // Every operator, AND/OR short-circuit, FOR with body writes to the
  // index variable, WHILE, nested IF/ELSIF, text concat, unary ops, and
  // the operators' boundary cases.
  auto C = compile(R"(
VAR log : TEXT := "";
PROCEDURE Arith(a, b : INTEGER) : INTEGER =
BEGIN
  RETURN (a + b) * (a - b) - a DIV b + a MOD b;
END Arith;
PROCEDURE Logic(a, b : INTEGER) : BOOLEAN =
BEGIN
  RETURN (a < b OR a >= b * 2) AND NOT (a = b) AND a # b - 100;
END Logic;
PROCEDURE Loops(n : INTEGER) : INTEGER =
VAR s, i, j : INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO n DO
    s := s + i;
    i := 0;          (* must not perturb iteration *)
  END;
  j := n;
  WHILE j > 0 DO
    s := s + 1;
    j := j - 1;
  END;
  RETURN s + (-n);
END Loops;
PROCEDURE Classify(x : INTEGER) : TEXT =
BEGIN
  IF x < 0 THEN
    RETURN "neg";
  ELSIF x = 0 THEN
    RETURN "zero";
  ELSIF x < 10 THEN
    RETURN "small";
  END;
  RETURN "big";
END Classify;
PROCEDURE Tag(x : INTEGER) =
BEGIN
  log := log & Classify(x) & ";";
  print(log);
END Tag;
)");
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  checkDifferential(*C, {
                            {"Arith", {17, 5}},
                            {"Arith", {-9, 4}},
                            {"Logic", {3, 8}},
                            {"Logic", {8, 8}},
                            {"Loops", {7}},
                            {"Loops", {0}},
                            {"Tag", {-3}},
                            {"Tag", {0}},
                            {"Tag", {7}},
                            {"Tag", {99}},
                        });
  // Boundaries: equal operands for every comparison, negative operands
  // for abs/min/max and DIV/MOD.
  auto E = compile(operatorEdgeProgram());
  ASSERT_TRUE(E->ok()) << E->Diags.str();
  checkDifferential(*E, {
                            {"Compare", {4, 4}},
                            {"Compare", {-3, -3}},
                            {"Compare", {1, 2}},
                            {"Compare", {2, 1}},
                            {"Compare", {-5, 0}},
                            {"Numeric", {-7, 2}},
                            {"Numeric", {7, -2}},
                            {"Numeric", {-7, -2}},
                            {"Numeric", {-9, -30}},
                            {"Numeric", {0, -4}},
                        });
}

/// Initializers that read earlier globals, allocate, and call plain and
/// cached procedures.
static const char *initializerProgram() {
  return R"(
TYPE Box = OBJECT
  v : INTEGER;
END;
VAR
  base : INTEGER := 6;
  sq : INTEGER := Square(base);
  box : Box := Wrap(sq + 1);
  fresh : Box := NEW(Box);
  label : TEXT := "sq=" & fmt(sq);
  big : BOOLEAN := sq >= 36 AND base # 0;
(*CACHED*) PROCEDURE Square(x : INTEGER) : INTEGER =
BEGIN
  RETURN x * x;
END Square;
PROCEDURE Wrap(x : INTEGER) : Box =
VAR b : Box;
BEGIN
  b := NEW(Box);
  b.v := x;
  RETURN b;
END Wrap;
PROCEDURE Report() : INTEGER =
BEGIN
  print(label);
  print(big);
  RETURN box.v + fresh.v + Square(base);
END Report;
PROCEDURE SetBase(x : INTEGER) = BEGIN base := x; END SetBase;
)";
}

TEST(BytecodeDiffTest, GlobalInitializers) {
  // Initializers run in declaration order as one compiled chunk.
  auto C = compile(initializerProgram());
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  checkDifferential(*C, {{"Report", {}}, {"SetBase", {3}}, {"Report", {}}});
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  ASSERT_FALSE(I.failed()) << I.errorMessage();
  EXPECT_EQ(I.global("sq").Int, 36);
  EXPECT_EQ(I.field(I.global("box"), "v").Int, 37);
  EXPECT_EQ(I.global("label").Text, "sq=36");
  EXPECT_TRUE(I.global("big").Bool);
  EXPECT_EQ(I.call("Report").Int, 37 + 0 + 36);
}

TEST(BytecodeDiffTest, InitializerCachedCallsLeaveNoInstances) {
  // Cached calls from initializers run conventionally. Inc reads the
  // global its own initializer is computing, and Peek reads one a later
  // initializer sets: neither answer may be cached across those
  // untracked stores.
  auto C = compile(R"(
VAR
  a : INTEGER := Inc();
  b : INTEGER := Peek();
  c : INTEGER := 5;
(*CACHED*) PROCEDURE Inc() : INTEGER = BEGIN RETURN a + 1; END Inc;
(*CACHED*) PROCEDURE Peek() : INTEGER = BEGIN RETURN c * 10; END Peek;
PROCEDURE SetC(v : INTEGER) = BEGIN c := v; END SetC;
)");
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  RunResult Ref = checkDifferential(*C, {{"Inc", {}},
                                         {"Peek", {}},
                                         {"SetC", {7}},
                                         {"Peek", {}},
                                         {"Inc", {}}});
  EXPECT_EQ(Ref.Rendered,
            (std::vector<std::string>{"2", "50", "NIL", "70", "2"}));
  EXPECT_EQ(Ref.Globals, (std::vector<std::string>{"1", "0", "7"}));
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  ASSERT_FALSE(I.failed()) << I.errorMessage();
  EXPECT_EQ(I.runtime().graph().numLiveNodes(), 0u);
}

TEST(BytecodeDiffTest, InitializerCheckpointRoundTrip) {
  // A module whose initializers call a cached procedure saves and
  // restores like any other: the fresh interpreter's initializers leave
  // no graph state for the restore to refuse.
  const std::string Path = std::string(std::getenv("TMPDIR")
                                           ? std::getenv("TMPDIR")
                                           : "/tmp") +
                           "/bytecode-diff-init." + std::to_string(::getpid()) +
                           ".ckpt";
  auto C = compile(initializerProgram());
  ASSERT_TRUE(C->ok()) << C->Diags.str();

  Interp A(C->M, C->Info, ExecMode::Alphonse);
  A.call("SetBase", {IV(3)});
  EXPECT_EQ(A.call("Report").Int, 37 + 0 + 9);
  ASSERT_FALSE(A.failed()) << A.errorMessage();
  A.saveCheckpoint(Path);

  for (unsigned Workers : {0u, 4u}) {
    SCOPED_TRACE("restore at workers=" + std::to_string(Workers));
    DepGraph::Config Cfg;
    Cfg.Workers = Workers;
    Interp B(C->M, C->Info, ExecMode::Alphonse, Cfg);
    ASSERT_NO_THROW(B.restoreCheckpoint(Path));
    EXPECT_EQ(B.global("base").Int, 3);
    EXPECT_EQ(B.call("Report").Int, 37 + 0 + 9);
    B.call("SetBase", {IV(5)});
    EXPECT_EQ(B.call("Report").Int, 37 + 0 + 25);
    ASSERT_FALSE(B.failed()) << B.errorMessage();
    EXPECT_EQ(B.output(), "sq=36\nTRUE\nsq=36\nTRUE\nsq=36\nTRUE\n");
  }
  std::remove(Path.c_str());
  std::remove(deltaLogPath(Path).c_str());
}

TEST(BytecodeDiffTest, InitializerFaultsPartWay) {
  // The fourth initializer divides by zero: the globals before it keep
  // their values, the rest keep their defaults, and failed() carries the
  // message with its source location.
  auto C = compile(R"(
VAR
  a : INTEGER := 5;
  b : INTEGER := a * 2;
  zero : INTEGER;
  c : INTEGER := b DIV zero;
  d : INTEGER := 7;
PROCEDURE Sum() : INTEGER = BEGIN RETURN a + b + c + d; END Sum;
)");
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  checkDifferential(*C, {{"Sum", {}}});
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  ASSERT_TRUE(I.failed());
  EXPECT_EQ(I.errorMessage(), "6:20: division by zero");
  EXPECT_EQ(I.global("a").Int, 5);
  EXPECT_EQ(I.global("b").Int, 10);
  EXPECT_EQ(I.global("c").Int, 0);
  EXPECT_EQ(I.global("d").Int, 0);
}

TEST(BytecodeDiffTest, RuntimeFaultsAgree) {
  // The VM must fail at the reference's step, with the same message (same
  // source location).
  auto C = compile(R"(
VAR d : INTEGER := 1;
(*CACHED*) PROCEDURE Ratio(x : INTEGER) : INTEGER =
BEGIN
  RETURN x DIV d;
END Ratio;
PROCEDURE SetD(v : INTEGER) = BEGIN d := v; END SetD;
)");
  ASSERT_TRUE(C->ok());
  checkDifferential(*C, {
                            {"Ratio", {10}},
                            {"SetD", {0}},
                            {"Ratio", {10}}, // division by zero
                        });
}

TEST(BytecodeDiffTest, NilDereferenceAgrees) {
  auto C = compile(R"(
TYPE Box = OBJECT
  v : INTEGER;
METHODS
  get() : INTEGER := Get;
END;
VAR b : Box;
PROCEDURE Get(o : Box) : INTEGER = BEGIN RETURN o.v; END Get;
PROCEDURE ReadField() : INTEGER = BEGIN RETURN b.v; END ReadField;
PROCEDURE CallIt() : INTEGER = BEGIN RETURN b.get(); END CallIt;
PROCEDURE WriteField(x : INTEGER) = BEGIN b.v := x; END WriteField;
)");
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  checkDifferential(*C, {{"ReadField", {}}});
  checkDifferential(*C, {{"CallIt", {}}});
  checkDifferential(*C, {{"WriteField", {7}}});
}

TEST(BytecodeDiffTest, RecursionDepthLimitAgrees) {
  // The VM's per-thread depth counter must trip at the language's limit
  // (Interp::MaxNestedCalls) with the reference's message.
  auto C = compile(R"(
PROCEDURE Down(n : INTEGER) : INTEGER =
BEGIN
  RETURN Down(n + 1);
END Down;
)");
  ASSERT_TRUE(C->ok());
  checkDifferential(*C, {{"Down", {0}}});
  // The initializer chunk is not a call level: a procedure it calls
  // starts at depth 0, as a driver call does, so a chain of exactly
  // Interp::MaxNestedCalls frames fits and one more frame fails.
  for (int Frames : {Interp::MaxNestedCalls, Interp::MaxNestedCalls + 1}) {
    SCOPED_TRACE("initializer chain of " + std::to_string(Frames));
    auto I = compile("VAR d : INTEGER := Count(" +
                     std::to_string(Frames - 1) + R"();
PROCEDURE Count(n : INTEGER) : INTEGER =
BEGIN
  IF n = 0 THEN
    RETURN 0;
  END;
  RETURN Count(n - 1) + 1;
END Count;
)");
    ASSERT_TRUE(I->ok()) << I->Diags.str();
    RunResult Ref = checkDifferential(*I, {{"Count", {2}}});
    EXPECT_EQ(Ref.Failed, Frames > Interp::MaxNestedCalls) << Ref.Error;
  }
}

TEST(BytecodeDiffTest, InjectedVmFaultQuarantinesAndRecovers) {
  // The vm.* injection sites fire on chunk entry; a throw there must
  // quarantine the executing instance exactly like a body fault, and the
  // standard reset path must recover it.
  auto C = compile(R"(
VAR x : INTEGER := 3;
(*CACHED*) PROCEDURE Twice(k : INTEGER) : INTEGER =
BEGIN
  RETURN 2 * (x + k);
END Twice;
PROCEDURE SetX(v : INTEGER) = BEGIN x := v; END SetX;
)");
  ASSERT_TRUE(C->ok());
  Interp I(C->M, C->Info, ExecMode::Alphonse);

  FaultInjector Injector;
  Injector.armThrow("vm.Twice");
  {
    FaultInjector::Scope Scope(Injector);
    I.call("Twice", {IV(1)});
    ASSERT_TRUE(I.failed());
    EXPECT_NE(I.errorMessage().find("vm.Twice"), std::string::npos)
        << I.errorMessage();
    EXPECT_EQ(I.runtime().graph().numQuarantined(), 1u);
  }
  I.clearError();
  I.runtime().graph().resetAllQuarantined();
  Value V = I.call("Twice", {IV(1)});
  ASSERT_FALSE(I.failed()) << I.errorMessage();
  EXPECT_EQ(V.Int, 8);
}

TEST(BytecodeDiffTest, CheckpointRoundTripAcrossEngines) {
  // A checkpoint does not depend on the engine configuration that wrote
  // it: compiled chunks are derived state, so a snapshot saved under
  // parallel execution restores at either worker count with identical
  // answers.
  const std::string Path = std::string(std::getenv("TMPDIR")
                                           ? std::getenv("TMPDIR")
                                           : "/tmp") +
                           "/bytecode-diff." + std::to_string(::getpid()) +
                           ".ckpt";
  auto C = compile(testing::heightTreeProgram());
  ASSERT_TRUE(C->ok());

  DepGraph::Config Par;
  Par.Workers = 4;
  Interp A(C->M, C->Info, ExecMode::Alphonse, Par);
  A.call("BuildChain", {IV(9)});
  Value HA = A.call("RootHeight");
  ASSERT_FALSE(A.failed()) << A.errorMessage();
  A.saveCheckpoint(Path);

  for (unsigned Workers : {0u, 4u}) {
    SCOPED_TRACE("restore at workers=" + std::to_string(Workers));
    DepGraph::Config Cfg;
    Cfg.Workers = Workers;
    Interp B(C->M, C->Info, ExecMode::Alphonse, Cfg);
    B.restoreCheckpoint(Path);
    Value HB = B.call("RootHeight");
    ASSERT_FALSE(B.failed()) << B.errorMessage();
    EXPECT_TRUE(HA == HB);
    B.call("GrowLeft", {IV(2)});
    Value HG = B.call("RootHeight");
    ASSERT_FALSE(B.failed());
    EXPECT_EQ(HG.Int, HA.Int + 2);
  }
  std::remove(Path.c_str());
  std::remove(deltaLogPath(Path).c_str());
}

TEST(BytecodeDiffTest, NullaryConeCheckpointRoundTrip) {
  // A snapshot of the cone saved under parallel execution restores at
  // either worker count, and incremental repair continues from it.
  const std::string Path = std::string(std::getenv("TMPDIR")
                                           ? std::getenv("TMPDIR")
                                           : "/tmp") +
                           "/bytecode-diff-cone." + std::to_string(::getpid()) +
                           ".ckpt";
  auto C = compile(coneProgram());
  ASSERT_TRUE(C->ok()) << C->Diags.str();

  DepGraph::Config Par;
  Par.Workers = 4;
  Interp A(C->M, C->Info, ExecMode::Alphonse, Par);
  A.call("SetA", {IV(7)});
  A.call("SetB", {IV(5)});
  A.call("SetScale", {IV(3)});
  Value SumA = A.call("Sum");
  Value ScaledA = A.call("Scaled");
  ASSERT_FALSE(A.failed()) << A.errorMessage();
  A.saveCheckpoint(Path);

  for (unsigned Workers : {0u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    DepGraph::Config Cfg;
    Cfg.Workers = Workers;
    Interp B(C->M, C->Info, ExecMode::Alphonse, Cfg);
    B.restoreCheckpoint(Path);
    EXPECT_TRUE(SumA == B.call("Sum"));
    EXPECT_TRUE(ScaledA == B.call("Scaled"));
    ASSERT_FALSE(B.failed()) << B.errorMessage();
    B.call("SetA", {IV(9)});
    B.call("Touch", {IV(1)});
    Value Sum2 = B.call("Sum");
    ASSERT_FALSE(B.failed()) << B.errorMessage();
    EXPECT_EQ(Sum2.Int, 14);
    EXPECT_EQ(B.runtime().graph().numPending(), 0u);
  }
  std::remove(Path.c_str());
  std::remove(deltaLogPath(Path).c_str());
}

TEST(BytecodeDiffTest, EffectAnalysisClearsPureMethods) {
  auto C = compile(testing::heightTreeProgram());
  ASSERT_TRUE(C->ok());
  DiagnosticEngine Diags;
  auto BC = bytecode::compileModule(C->M, C->Info, Diags);
  ASSERT_TRUE(BC) << Diags.str();
  const lang::ProcDecl *Height = C->M.findProc("Height");
  const lang::ProcDecl *HeightNil = C->M.findProc("HeightNil");
  const lang::ProcDecl *BuildChain = C->M.findProc("BuildChain");
  ASSERT_TRUE(Height && HeightNil && BuildChain);
  EXPECT_TRUE(BC->parallelSafe(Height));
  EXPECT_TRUE(BC->parallelSafe(HeightNil));
  // BuildChain allocates and writes globals/fields: pinned.
  EXPECT_FALSE(BC->parallelSafe(BuildChain));
  EXPECT_EQ(BC->chunk(Height).Name, "Height");
}

} // namespace
} // namespace alphonse::interp
