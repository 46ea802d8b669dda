//===- BytecodeDiffTest.cpp - tree-walker vs bytecode differential --------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode tier must be observationally identical to the tree-walking
/// interpreter: same return values, same print output, same fault and
/// quarantine outcomes, same pending work, same checkpoint round-trips —
/// at Workers = 0 and with parallel wave drains. Every Alphonse-L test
/// program (the canonical height-tree and AVL modules plus the inline
/// corpus below) runs through both engines with identical driver scripts,
/// including fixed-seed randomized interleavings, and the new vm.*
/// fault-injection sites are exercised for quarantine/recovery behavior.
///
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "interp/bytecode/Compiler.h"
#include "lang/CompileTestHelper.h"
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

using testing::compile;
using testing::Compiled;

static Value IV(long X) { return Value::integer(X); }

struct Step {
  std::string Proc;
  std::vector<long> Args;
};

/// Everything one engine observably produced for a script.
struct RunResult {
  std::vector<std::string> Rendered; ///< Per-step results ("!" = failed).
  std::string Output;
  bool Failed = false;
  std::string Error;
  size_t Quarantined = 0;
  size_t Pending = 0;
};

/// Runs \p Script on a fresh interpreter. \p Bytecode selects the engine,
/// \p Workers the wave pool size. A failing step records the error and
/// stops (both engines must fail at the same step with the same message).
static RunResult runScript(const Compiled &C, const std::vector<Step> &Script,
                           bool Bytecode, unsigned Workers) {
  DepGraph::Config Cfg;
  Cfg.Workers = Workers;
  Interp I(C.M, C.Info, ExecMode::Alphonse, Cfg, Bytecode);
  RunResult R;
  for (const Step &S : Script) {
    std::vector<Value> Args;
    for (long A : S.Args)
      Args.push_back(IV(A));
    Value V = I.call(S.Proc, std::move(Args));
    if (I.failed()) {
      R.Failed = true;
      R.Error = I.errorMessage();
      R.Rendered.push_back("!");
      break;
    }
    // Object identities differ across interpreters; render the kind only.
    R.Rendered.push_back(V.K == Value::Kind::Object ? "<obj>" : V.render());
  }
  R.Output = I.output();
  R.Quarantined = I.runtime().graph().numQuarantined();
  R.Pending = I.runtime().graph().numPending();
  return R;
}

/// The differential check: tree-walker (serial) is the reference; the
/// bytecode engine must match it at Workers = 0 and Workers = 4.
static void checkDifferential(const Compiled &C,
                              const std::vector<Step> &Script) {
  RunResult Ref = runScript(C, Script, /*Bytecode=*/false, /*Workers=*/0);
  for (unsigned Workers : {0u, 4u}) {
    RunResult BC = runScript(C, Script, /*Bytecode=*/true, Workers);
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    ASSERT_EQ(Ref.Rendered, BC.Rendered);
    EXPECT_EQ(Ref.Output, BC.Output);
    EXPECT_EQ(Ref.Failed, BC.Failed);
    EXPECT_EQ(Ref.Error, BC.Error);
    EXPECT_EQ(Ref.Quarantined, BC.Quarantined);
    EXPECT_EQ(Ref.Pending, BC.Pending);
  }
  // The tree-walker itself must be Workers-insensitive too (its nodes
  // stay serial-pinned, so the pool must simply leave them to the mop-up).
  RunResult TW4 = runScript(C, Script, /*Bytecode=*/false, /*Workers=*/4);
  ASSERT_EQ(Ref.Rendered, TW4.Rendered);
  EXPECT_EQ(Ref.Output, TW4.Output);
  EXPECT_EQ(Ref.Pending, TW4.Pending);
}

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
  RunResult Ref = runScript(*C, Script, /*Bytecode=*/false, /*Workers=*/0);
  EXPECT_EQ(Ref.Rendered[10], "14");
  EXPECT_EQ(Ref.Pending, 0u);
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
  RunResult Ref = runScript(*C, Script, /*Bytecode=*/false, /*Workers=*/0);
  EXPECT_TRUE(Ref.Failed);
  EXPECT_EQ(Ref.Quarantined, 1u);
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
        // Occasionally zero: later Ratio calls fault, and both engines
        // must agree on exactly when.
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
  // index variable, WHILE, nested IF/ELSIF, text concat, unary ops.
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
}

TEST(BytecodeDiffTest, RuntimeFaultsAgree) {
  // Both engines must fail at the same step, with the same message (same
  // source location), and quarantine the same number of instances.
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
  // The VM's per-thread depth counter must trip with the tree-walker's
  // exact limit and message.
  auto C = compile(R"(
PROCEDURE Down(n : INTEGER) : INTEGER =
BEGIN
  RETURN Down(n + 1);
END Down;
)");
  ASSERT_TRUE(C->ok());
  checkDifferential(*C, {{"Down", {0}}});
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
  if (std::getenv("ALPHONSE_NO_BYTECODE"))
    GTEST_SKIP() << "vm.* sites only exist in the bytecode engine";
  DepGraph::Config Cfg;
  Interp I(C->M, C->Info, ExecMode::Alphonse, Cfg, /*EnableBytecode=*/true);
  ASSERT_NE(I.bytecodeModule(), nullptr);

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
  // A checkpoint is engine-agnostic: compiled chunks are derived state,
  // so a snapshot saved under parallel bytecode execution restores into
  // a tree-walking interpreter (and vice versa) with identical answers.
  const std::string Path = std::string(std::getenv("TMPDIR")
                                           ? std::getenv("TMPDIR")
                                           : "/tmp") +
                           "/bytecode-diff." + std::to_string(::getpid()) +
                           ".ckpt";
  auto C = compile(testing::heightTreeProgram());
  ASSERT_TRUE(C->ok());

  DepGraph::Config Par;
  Par.Workers = 4;
  Interp A(C->M, C->Info, ExecMode::Alphonse, Par, /*EnableBytecode=*/true);
  A.call("BuildChain", {IV(9)});
  Value HA = A.call("RootHeight");
  ASSERT_FALSE(A.failed()) << A.errorMessage();
  A.saveCheckpoint(Path);

  for (bool Bytecode : {true, false}) {
    SCOPED_TRACE(Bytecode ? "restore-into-bytecode" : "restore-into-treewalk");
    Interp B(C->M, C->Info, ExecMode::Alphonse, DepGraph::Config(), Bytecode);
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
  // A snapshot of the cone saved under parallel bytecode execution
  // restores into either engine at either worker count, and incremental
  // repair continues from it.
  const std::string Path = std::string(std::getenv("TMPDIR")
                                           ? std::getenv("TMPDIR")
                                           : "/tmp") +
                           "/bytecode-diff-cone." + std::to_string(::getpid()) +
                           ".ckpt";
  auto C = compile(coneProgram());
  ASSERT_TRUE(C->ok()) << C->Diags.str();

  DepGraph::Config Par;
  Par.Workers = 4;
  Interp A(C->M, C->Info, ExecMode::Alphonse, Par, /*EnableBytecode=*/true);
  A.call("SetA", {IV(7)});
  A.call("SetB", {IV(5)});
  A.call("SetScale", {IV(3)});
  Value SumA = A.call("Sum");
  Value ScaledA = A.call("Scaled");
  ASSERT_FALSE(A.failed()) << A.errorMessage();
  A.saveCheckpoint(Path);

  for (bool Bytecode : {true, false}) {
    for (unsigned Workers : {0u, 4u}) {
      SCOPED_TRACE(std::string(Bytecode ? "bytecode" : "treewalk") +
                   " workers=" + std::to_string(Workers));
      DepGraph::Config Cfg;
      Cfg.Workers = Workers;
      Interp B(C->M, C->Info, ExecMode::Alphonse, Cfg, Bytecode);
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
  }
  std::remove(Path.c_str());
  std::remove(deltaLogPath(Path).c_str());
}

TEST(BytecodeDiffTest, EffectAnalysisClearsPureMethods) {
  auto C = compile(testing::heightTreeProgram());
  ASSERT_TRUE(C->ok());
  auto BC = bytecode::compileModule(C->M, C->Info);
  const lang::ProcDecl *Height = C->M.findProc("Height");
  const lang::ProcDecl *HeightNil = C->M.findProc("HeightNil");
  const lang::ProcDecl *BuildChain = C->M.findProc("BuildChain");
  ASSERT_TRUE(Height && HeightNil && BuildChain);
  EXPECT_TRUE(BC->parallelSafe(Height));
  EXPECT_TRUE(BC->parallelSafe(HeightNil));
  // BuildChain allocates and writes globals/fields: pinned.
  EXPECT_FALSE(BC->parallelSafe(BuildChain));
  EXPECT_NE(BC->chunk(Height), nullptr);
}

TEST(BytecodeDiffTest, NoBytecodeEnvWins) {
  auto C = compile(testing::heightTreeProgram());
  ASSERT_TRUE(C->ok());
  const char *Prior = std::getenv("ALPHONSE_NO_BYTECODE");
  ::setenv("ALPHONSE_NO_BYTECODE", "1", 1);
  Interp I(C->M, C->Info, ExecMode::Alphonse, DepGraph::Config(),
           /*EnableBytecode=*/true);
  if (Prior)
    ::setenv("ALPHONSE_NO_BYTECODE", Prior, 1);
  else
    ::unsetenv("ALPHONSE_NO_BYTECODE");
  EXPECT_EQ(I.bytecodeModule(), nullptr);
  I.call("BuildChain", {IV(5)});
  Value H = I.call("RootHeight");
  ASSERT_FALSE(I.failed()) << I.errorMessage();
  EXPECT_EQ(H.Int, 5);
}

} // namespace
} // namespace alphonse::interp
