//===- InterpTest.cpp - Alphonse-L interpreter tests ----------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conventional-mode execution semantics, Alphonse-mode incremental
/// behaviour (caching, invalidation, batching, eager/demand, unchecked),
/// and error handling.
///
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "lang/CompileTestHelper.h"
#include "support/CheckpointIO.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace alphonse::interp {
namespace {

using testing::compile;
using testing::Compiled;

static Value IV(long X) { return Value::integer(X); }

//===----------------------------------------------------------------------===//
// Conventional semantics
//===----------------------------------------------------------------------===//

TEST(InterpConventionalTest, ArithmeticAndControlFlow) {
  auto C = compile(R"(
PROCEDURE SumTo(n : INTEGER) : INTEGER =
VAR s, i : INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO n DO
    s := s + i;
  END;
  RETURN s;
END SumTo;

PROCEDURE Collatz(n : INTEGER) : INTEGER =
VAR steps : INTEGER;
BEGIN
  steps := 0;
  WHILE n # 1 DO
    IF n MOD 2 = 0 THEN
      n := n DIV 2;
    ELSE
      n := 3 * n + 1;
    END;
    steps := steps + 1;
  END;
  RETURN steps;
END Collatz;
)");
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  Interp I(C->M, C->Info, ExecMode::Conventional);
  EXPECT_EQ(I.call("SumTo", {IV(100)}).Int, 5050);
  EXPECT_EQ(I.call("Collatz", {IV(27)}).Int, 111);
  EXPECT_FALSE(I.failed());
}

TEST(InterpConventionalTest, RecursionAndBuiltins) {
  auto C = compile(R"(
PROCEDURE Fact(n : INTEGER) : INTEGER =
BEGIN
  IF n <= 1 THEN
    RETURN 1;
  END;
  RETURN n * Fact(n - 1);
END Fact;

PROCEDURE Clamp(x : INTEGER) : INTEGER =
BEGIN
  RETURN max(0, min(x, 10));
END Clamp;
)");
  ASSERT_TRUE(C->ok());
  Interp I(C->M, C->Info, ExecMode::Conventional);
  EXPECT_EQ(I.call("Fact", {IV(10)}).Int, 3628800);
  EXPECT_EQ(I.call("Clamp", {IV(-5)}).Int, 0);
  EXPECT_EQ(I.call("Clamp", {IV(50)}).Int, 10);
  EXPECT_EQ(I.call("Clamp", {IV(7)}).Int, 7);
}

TEST(InterpConventionalTest, TextAndPrint) {
  auto C = compile(R"(
PROCEDURE Greet(name : TEXT) =
BEGIN
  print("hello, " & name & "!");
  print(40 + 2);
  print(TRUE);
END Greet;
)");
  ASSERT_TRUE(C->ok());
  Interp I(C->M, C->Info, ExecMode::Conventional);
  I.call("Greet", {Value::text("world")});
  EXPECT_EQ(I.output(), "hello, world!\n42\nTRUE\n");
}

TEST(InterpConventionalTest, ObjectsFieldsAndDispatch) {
  auto C = compile(R"(
TYPE Shape = OBJECT
  scale : INTEGER;
METHODS
  area() : INTEGER := ShapeArea;
END;
TYPE Square = Shape OBJECT
  side : INTEGER;
OVERRIDES
  area := SquareArea;
END;
PROCEDURE ShapeArea(s : Shape) : INTEGER = BEGIN RETURN 0; END ShapeArea;
PROCEDURE SquareArea(s : Shape) : INTEGER =
BEGIN
  RETURN s.scale;
END SquareArea;
VAR shapes : Shape;
PROCEDURE Run() : INTEGER =
VAR a : Shape; b : Shape;
BEGIN
  a := NEW(Shape);
  a.scale := 7;
  b := NEW(Square);
  b.scale := 9;
  RETURN a.area() + b.area();
END Run;
)");
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  Interp I(C->M, C->Info, ExecMode::Conventional);
  EXPECT_EQ(I.call("Run").Int, 9); // 0 (base) + 9 (override reads scale).
}

TEST(InterpConventionalTest, GlobalInitializersRunInOrder) {
  auto C = compile(R"(
VAR a : INTEGER := 5; b : INTEGER := a * 2; t : TEXT := "x";
PROCEDURE Get() : INTEGER = BEGIN RETURN b; END Get;
)");
  ASSERT_TRUE(C->ok());
  Interp I(C->M, C->Info, ExecMode::Conventional);
  EXPECT_EQ(I.call("Get").Int, 10);
  EXPECT_EQ(I.global("t").Text, "x");
}

TEST(InterpConventionalTest, NilDereferenceFails) {
  auto C = compile(R"(
TYPE T = OBJECT v : INTEGER; END;
VAR t : T;
PROCEDURE Boom() : INTEGER = BEGIN RETURN t.v; END Boom;
)");
  ASSERT_TRUE(C->ok());
  Interp I(C->M, C->Info, ExecMode::Conventional);
  I.call("Boom");
  EXPECT_TRUE(I.failed());
  EXPECT_NE(I.errorMessage().find("NIL dereference"), std::string::npos);
}

TEST(InterpConventionalTest, DivisionByZeroFails) {
  auto C = compile(R"(
PROCEDURE Boom(n : INTEGER) : INTEGER = BEGIN RETURN 1 DIV n; END Boom;
)");
  ASSERT_TRUE(C->ok());
  Interp I(C->M, C->Info, ExecMode::Conventional);
  I.call("Boom", {IV(0)});
  EXPECT_TRUE(I.failed());
}

TEST(InterpConventionalTest, RunawayRecursionFails) {
  auto C = compile(R"(
PROCEDURE Loop(n : INTEGER) : INTEGER = BEGIN RETURN Loop(n); END Loop;
)");
  ASSERT_TRUE(C->ok());
  Interp I(C->M, C->Info, ExecMode::Conventional);
  I.call("Loop", {IV(1)});
  EXPECT_TRUE(I.failed());
  EXPECT_NE(I.errorMessage().find("call depth"), std::string::npos);
}

TEST(InterpConventionalTest, ClearErrorResumesExecution) {
  auto C = compile(R"(
PROCEDURE Boom(n : INTEGER) : INTEGER = BEGIN RETURN 1 DIV n; END Boom;
PROCEDURE Ok() : INTEGER = BEGIN RETURN 42; END Ok;
)");
  ASSERT_TRUE(C->ok());
  Interp I(C->M, C->Info, ExecMode::Conventional);
  I.call("Boom", {IV(0)});
  EXPECT_TRUE(I.failed());
  // While failed, execution is a no-op; the first error is preserved.
  EXPECT_EQ(I.call("Ok").K, Value::Kind::Nil);
  EXPECT_NE(I.errorMessage().find("division by zero"), std::string::npos);
  I.clearError();
  EXPECT_FALSE(I.failed());
  EXPECT_EQ(I.call("Ok").Int, 42);
}

/// A procedure with 70,000 locals: more frame registers than a bytecode
/// operand can address.
static std::string registerLimitProgram() {
  std::string Src = "PROCEDURE Big() : INTEGER =\nVAR\n";
  for (int I = 0; I < 70000; ++I)
    Src += "  v" + std::to_string(I) + " : INTEGER;\n";
  return Src + "BEGIN\n  RETURN v0 + 1;\nEND Big;\n";
}

static const char *RegisterLimitError =
    "1:11: error: procedure 'Big' needs 70002 registers; the limit is 65535";

TEST(InterpConventionalTest, RegisterLimitIsACompileError) {
  auto C = compile(registerLimitProgram());
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  for (ExecMode Mode : {ExecMode::Conventional, ExecMode::Alphonse}) {
    Interp I(C->M, C->Info, Mode);
    ASSERT_TRUE(I.failed());
    EXPECT_EQ(I.errorMessage(), RegisterLimitError);
    // A module that did not compile never runs, not even after
    // clearError(), and refuses a restore.
    I.clearError();
    EXPECT_TRUE(I.failed());
    EXPECT_TRUE(I.call("Big").isNil());
    EXPECT_THROW(I.restoreCheckpoint("no-such-checkpoint"), CheckpointError);
    EXPECT_EQ(I.errorMessage(), RegisterLimitError);
  }
}

/// A scratch .alf file for alphonsec runs, removed on exit.
class ScratchProgram {
public:
  ScratchProgram(const std::string &Stem, const std::string &Source)
      : Path(std::string(std::getenv("TMPDIR") ? std::getenv("TMPDIR")
                                               : "/tmp") +
             "/" + Stem + "." + std::to_string(::getpid()) + ".alf") {
    std::ofstream(Path) << Source;
  }
  ~ScratchProgram() { std::remove(Path.c_str()); }
  const std::string Path;
};

/// Runs alphonsec on \p Path with \p Args, capturing both streams.
/// \returns the wait status; a crash shows as a signal, not an exit.
static int runAlphonsec(const std::string &Path, const std::string &Args,
                        std::string &Out) {
  std::string Cmd =
      std::string(ALPHONSEC_PATH) + " " + Path + " " + Args + " 2>&1";
  FILE *P = ::popen(Cmd.c_str(), "r");
  EXPECT_NE(P, nullptr);
  if (!P)
    return -1;
  char Buf[512];
  while (size_t N = std::fread(Buf, 1, sizeof(Buf), P))
    Out.append(Buf, N);
  return ::pclose(P);
}

TEST(InterpConventionalTest, AlphonsecReportsRegisterLimit) {
  ScratchProgram Prog("register-limit", registerLimitProgram());
  // Running the module and disassembling it both report the compile
  // error. Capture what alphonsec prints on both streams.
  for (const char *Action : {"--run Big", "--dump-bytecode"}) {
    SCOPED_TRACE(Action);
    std::string Out;
    int Status = runAlphonsec(Prog.Path, Action, Out);
    ASSERT_TRUE(WIFEXITED(Status)) << Out; // A crash is a signal.
    EXPECT_EQ(WEXITSTATUS(Status), 1) << Out;
    EXPECT_EQ(Out, std::string(RegisterLimitError) + "\n");
  }
}

TEST(InterpConventionalTest, AlphonsecRejectsBadArgumentsAsUsageErrors) {
  ScratchProgram Prog("bad-args", R"(
PROCEDURE Main(n : INTEGER) : INTEGER = BEGIN RETURN n + 1; END Main;
)");
  // Malformed or out-of-range numbers, and unknown options such as
  // --jobs, are usage errors: exit 1, reported before anything runs.
  for (const char *Args :
       {"--run Main,abc", "--run Main,99999999999999999999999",
        "--run Main,5x", "--run Main,", "--step-budget -1 --run Main,1",
        "--deadline-ms 18446744073709552 --run Main,1",
        "--fault-seed 1x --run Main,1", "--jobs 2 --run Main,1"}) {
    SCOPED_TRACE(Args);
    std::string Out;
    int Status = runAlphonsec(Prog.Path, Args, Out);
    ASSERT_TRUE(WIFEXITED(Status)) << Out;
    EXPECT_EQ(WEXITSTATUS(Status), 1) << Out;
    EXPECT_EQ(Out.find("Main =>"), std::string::npos) << Out;
  }
  // Well-formed arguments, negative ones included, still run.
  std::string Out;
  int Status = runAlphonsec(Prog.Path, "--run \"Main,5;Main,-5\"", Out);
  ASSERT_TRUE(WIFEXITED(Status)) << Out;
  EXPECT_EQ(WEXITSTATUS(Status), 0) << Out;
  EXPECT_EQ(Out, "Main => 6\nMain => -4\n");
}

TEST(InterpConventionalTest, AlphonsecRejectsDeepStatementNesting) {
  // Nesting past Parser::MaxStmtDepth is a compile error, with or
  // without --run; 20,000 nested IFs would otherwise overflow the
  // parser's stack.
  std::string Src = "PROCEDURE Main() : INTEGER = BEGIN\n";
  for (int I = 0; I < 20000; ++I)
    Src += "IF TRUE THEN\n";
  Src += "RETURN 1;\n";
  for (int I = 0; I < 20000; ++I)
    Src += "END;\n";
  Src += "RETURN 0;\nEND Main;\n";
  ScratchProgram Prog("deep-if", Src);
  for (const char *Args : {"", "--run Main"}) {
    SCOPED_TRACE(Args);
    std::string Out;
    int Status = runAlphonsec(Prog.Path, Args, Out);
    ASSERT_TRUE(WIFEXITED(Status)) << Out.substr(0, 400);
    EXPECT_EQ(WEXITSTATUS(Status), 1) << Out.substr(0, 400);
    EXPECT_NE(Out.find("1002:1: error: statements nested more than 1000 "
                       "levels deep"),
              std::string::npos)
        << Out.substr(0, 400);
  }
}

TEST(InterpAlphonseTest, RuntimeErrorQuarantinesInstanceAndRecovers) {
  auto C = compile(R"(
VAR d : INTEGER := 1;
(*CACHED*) PROCEDURE Inv(n : INTEGER) : INTEGER =
BEGIN
  RETURN n DIV d;
END Inv;
)");
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  EXPECT_EQ(I.call("Inv", {IV(10)}).Int, 10);

  // The failing recompute unwinds through the incremental call protocol:
  // the instance is quarantined, the call stack is balanced, and the
  // driver sees the flag-based error.
  I.setGlobal("d", IV(0));
  I.call("Inv", {IV(10)});
  EXPECT_TRUE(I.failed());
  EXPECT_NE(I.errorMessage().find("division by zero"), std::string::npos);
  EXPECT_EQ(I.runtime().callDepth(), 0u);
  EXPECT_EQ(I.runtime().graph().numQuarantined(), 1u);
  EXPECT_TRUE(I.runtime().graph().verify().empty());

  // Recovery: fix the data, clear the error, reset the quarantined
  // instance, and the cache works again.
  I.clearError();
  I.setGlobal("d", IV(2));
  I.runtime().graph().resetAllQuarantined();
  EXPECT_EQ(I.call("Inv", {IV(10)}).Int, 5);
  EXPECT_FALSE(I.failed());
}

TEST(InterpAlphonseTest, ReentrantCycleIsQuarantinedAndRecovers) {
  // Loop(k) demands its own value while computing it: each re-entrant run
  // calls Loop(k) again, until the re-entrant depth limit calls it a
  // dependency cycle.
  const char *Src = R"(
VAR base : INTEGER := 1;
(*CACHED*) PROCEDURE Loop(k : INTEGER) : INTEGER =
BEGIN
  IF base > 0 THEN RETURN Loop(k) + 1; END;
  RETURN k;
END Loop;
)";
  ScratchProgram Prog("reentrant-cycle", Src);
  std::string Out;
  int Status = runAlphonsec(Prog.Path, "--run Loop,3 --stats", Out);
  ASSERT_TRUE(WIFEXITED(Status)) << Out;
  EXPECT_EQ(WEXITSTATUS(Status), 2) << Out;
  EXPECT_NE(Out.find("runtime error: re-entrant call depth limit (64) "
                     "reached on 'Loop': the value depends on its own "
                     "in-flight computation (dependency cycle)\n"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\nfault.quarantined    1\n"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\nfault.cycles         1\n"), std::string::npos) << Out;

  auto C = compile(Src);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  I.call("Loop", {IV(3)});
  EXPECT_TRUE(I.failed());
  EXPECT_NE(I.errorMessage().find("(dependency cycle)"), std::string::npos);
  EXPECT_EQ(I.runtime().callDepth(), 0u);
  auto Quarantined = I.runtime().graph().quarantined();
  ASSERT_EQ(Quarantined.size(), 1u);
  EXPECT_EQ(Quarantined[0].first->name(), "Loop");
  EXPECT_EQ(Quarantined[0].first->reentrantDepth(), 0u);
  EXPECT_EQ(Quarantined[0].second->Kind, FaultKind::Cycle);
  EXPECT_TRUE(I.runtime().graph().verify().empty());

  // Break the cycle, return the instance to service, and it computes.
  I.setGlobal("base", IV(0));
  EXPECT_EQ(I.runtime().graph().resetAllQuarantined(), 1u);
  I.clearError();
  EXPECT_EQ(I.call("Loop", {IV(3)}).Int, 3);
  EXPECT_FALSE(I.failed()) << I.errorMessage();
}

TEST(InterpConventionalTest, ShortCircuitEvaluation) {
  auto C = compile(R"(
TYPE T = OBJECT v : INTEGER; END;
PROCEDURE Safe(t : T) : BOOLEAN =
BEGIN
  RETURN t # NIL AND t.v > 0;
END Safe;
)");
  ASSERT_TRUE(C->ok());
  Interp I(C->M, C->Info, ExecMode::Conventional);
  EXPECT_FALSE(I.call("Safe", {Value::nil()}).Bool);
  EXPECT_FALSE(I.failed()) << I.errorMessage(); // t.v never evaluated.
}

//===----------------------------------------------------------------------===//
// Alphonse-mode incremental behaviour
//===----------------------------------------------------------------------===//

TEST(InterpAlphonseTest, CachedProcedureMemoizes) {
  auto C = compile(R"(
(*CACHED*) PROCEDURE Fib(n : INTEGER) : INTEGER =
BEGIN
  IF n < 2 THEN
    RETURN n;
  END;
  RETURN Fib(n - 1) + Fib(n - 2);
END Fib;
)");
  ASSERT_TRUE(C->ok());
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  EXPECT_EQ(I.call("Fib", {IV(25)}).Int, 75025);
  // Linear executions, not exponential.
  EXPECT_EQ(I.runtime().stats().ProcExecutions, 26u);
  EXPECT_EQ(I.call("Fib", {IV(25)}).Int, 75025);
  EXPECT_EQ(I.runtime().stats().ProcExecutions, 26u);
}

TEST(InterpAlphonseTest, CachedProcedureTracksGlobalState) {
  // Section 4.2's contribution: cached procedures are not combinators.
  auto C = compile(R"(
VAR scale : INTEGER := 2;
(*CACHED*) PROCEDURE Times(x : INTEGER) : INTEGER =
BEGIN
  RETURN x * scale;
END Times;
)");
  ASSERT_TRUE(C->ok());
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  EXPECT_EQ(I.call("Times", {IV(10)}).Int, 20);
  EXPECT_EQ(I.call("Times", {IV(10)}).Int, 20);
  EXPECT_EQ(I.runtime().stats().ProcExecutions, 1u);
  I.setGlobal("scale", IV(3));
  EXPECT_EQ(I.call("Times", {IV(10)}).Int, 30);
  EXPECT_EQ(I.runtime().stats().ProcExecutions, 2u);
}

TEST(InterpAlphonseTest, MaintainedHeightCachesAndUpdates) {
  auto C = compile(testing::heightTreeProgram());
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  I.call("BuildChain", {IV(20)});
  EXPECT_EQ(I.call("RootHeight").Int, 20);
  ASSERT_FALSE(I.failed()) << I.errorMessage();
  uint64_t FirstRun = I.runtime().stats().ProcExecutions;
  EXPECT_GE(FirstRun, 21u);
  // Second demand: pure cache hit.
  EXPECT_EQ(I.call("RootHeight").Int, 20);
  EXPECT_EQ(I.runtime().stats().ProcExecutions, FirstRun);
  // Grow under the deepest leaf: only the path re-executes.
  I.call("GrowLeft", {IV(1)});
  EXPECT_EQ(I.call("RootHeight").Int, 21);
  uint64_t AfterGrow = I.runtime().stats().ProcExecutions;
  EXPECT_LE(AfterGrow - FirstRun, 23u); // Path + new node, not 2^n.
}

TEST(InterpAlphonseTest, BatchedGrowthIsShared) {
  auto C = compile(testing::heightTreeProgram());
  ASSERT_TRUE(C->ok());
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  I.call("BuildChain", {IV(10)});
  EXPECT_EQ(I.call("RootHeight").Int, 10);
  I.runtime().resetStats();
  // Ten single growth steps, one re-demand: the changes batch.
  I.call("GrowLeft", {IV(10)});
  EXPECT_EQ(I.call("RootHeight").Int, 20);
  EXPECT_FALSE(I.failed()) << I.errorMessage();
}

TEST(InterpAlphonseTest, AvlSelfBalances) {
  auto C = compile(testing::avlProgram());
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  I.call("InitTree");
  for (int K = 1; K <= 64; ++K)
    I.call("Insert", {IV(K)});
  ASSERT_FALSE(I.failed()) << I.errorMessage();
  I.call("Rebalance");
  ASSERT_FALSE(I.failed()) << I.errorMessage();
  EXPECT_TRUE(I.call("IsBalanced").Bool);
  EXPECT_EQ(I.call("TreeHeight").Int, 7);
  for (int K = 1; K <= 64; ++K)
    EXPECT_TRUE(I.call("Contains", {IV(K)}).Bool) << K;
  EXPECT_FALSE(I.call("Contains", {IV(0)}).Bool);
  EXPECT_FALSE(I.call("Contains", {IV(100)}).Bool);
}

TEST(InterpAlphonseTest, AvlIncrementalRebalanceIsLocal) {
  auto C = compile(testing::avlProgram());
  ASSERT_TRUE(C->ok());
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  I.call("InitTree");
  for (int K = 0; K < 128; ++K)
    I.call("Insert", {IV(K * 10)});
  I.call("Rebalance");
  I.call("Rebalance"); // Settle self-invalidated instances.
  I.call("Rebalance");
  I.runtime().resetStats();
  I.call("Insert", {IV(5555)});
  I.call("Rebalance");
  ASSERT_FALSE(I.failed()) << I.errorMessage();
  EXPECT_TRUE(I.call("IsBalanced").Bool);
  // One insert must not re-run balance for all ~128 subtrees.
  EXPECT_LT(I.runtime().stats().ProcExecutions, 150u);
}

TEST(InterpAlphonseTest, EagerMethodUpdatesAtPump) {
  auto C = compile(R"(
TYPE Counter = OBJECT
  n : INTEGER;
METHODS
  (*MAINTAINED EAGER*) doubled() : INTEGER := Doubled;
END;
VAR c : Counter;
PROCEDURE Doubled(o : Counter) : INTEGER = BEGIN RETURN o.n * 2; END Doubled;
PROCEDURE Init() = BEGIN c := NEW(Counter); c.n := 1; END Init;
PROCEDURE Get() : INTEGER = BEGIN RETURN c.doubled(); END Get;
PROCEDURE Set(v : INTEGER) = BEGIN c.n := v; END Set;
)");
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  I.call("Init");
  EXPECT_EQ(I.call("Get").Int, 2);
  uint64_t Before = I.runtime().stats().ProcExecutions;
  I.call("Set", {IV(5)});
  EXPECT_EQ(I.runtime().stats().ProcExecutions, Before);
  I.pump(); // Eager update happens at the pump.
  EXPECT_EQ(I.runtime().stats().ProcExecutions, Before + 1);
  EXPECT_EQ(I.call("Get").Int, 10); // Cache hit.
  EXPECT_EQ(I.runtime().stats().ProcExecutions, Before + 1);
}

TEST(InterpAlphonseTest, UncheckedSuppressesDependence) {
  auto C = compile(R"(
VAR a : INTEGER := 1; b : INTEGER := 10;
TYPE D = OBJECT
METHODS
  (*MAINTAINED*) calc() : INTEGER := Calc;
END;
VAR d : D;
PROCEDURE Calc(o : D) : INTEGER =
BEGIN
  RETURN a + (*UNCHECKED*) b;
END Calc;
PROCEDURE Init() = BEGIN d := NEW(D); END Init;
PROCEDURE Get() : INTEGER = BEGIN RETURN d.calc(); END Get;
)");
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  I.call("Init");
  EXPECT_EQ(I.call("Get").Int, 11);
  I.setGlobal("b", IV(100));
  EXPECT_EQ(I.call("Get").Int, 11); // Stale by programmer's assertion.
  I.setGlobal("a", IV(2));
  EXPECT_EQ(I.call("Get").Int, 102); // Re-execution sees the new b too.
}

TEST(InterpAlphonseTest, QuiescentWriteTriggersNothing) {
  auto C = compile(R"(
VAR x : INTEGER := 5;
(*CACHED*) PROCEDURE F(k : INTEGER) : INTEGER = BEGIN RETURN x + k; END F;
)");
  ASSERT_TRUE(C->ok());
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  EXPECT_EQ(I.call("F", {IV(1)}).Int, 6);
  I.setGlobal("x", IV(7));
  I.setGlobal("x", IV(5)); // Written back before any demand.
  EXPECT_EQ(I.call("F", {IV(1)}).Int, 6);
  EXPECT_EQ(I.runtime().stats().ProcExecutions, 1u);
}

TEST(InterpAlphonseTest, MaintainedMethodPerReceiverInstances) {
  auto C = compile(R"(
TYPE Box = OBJECT
  v : INTEGER;
METHODS
  (*MAINTAINED*) squared() : INTEGER := Squared;
END;
VAR b1, b2 : Box;
PROCEDURE Squared(o : Box) : INTEGER = BEGIN RETURN o.v * o.v; END Squared;
PROCEDURE Init() =
BEGIN
  b1 := NEW(Box);
  b1.v := 3;
  b2 := NEW(Box);
  b2.v := 4;
END Init;
PROCEDURE Sum() : INTEGER = BEGIN RETURN b1.squared() + b2.squared(); END Sum;
PROCEDURE Bump1() = BEGIN b1.v := b1.v + 1; END Bump1;
)");
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  I.call("Init");
  EXPECT_EQ(I.call("Sum").Int, 25);
  I.runtime().resetStats();
  I.call("Bump1");
  EXPECT_EQ(I.call("Sum").Int, 32); // 16 + 16.
  // Only b1's instance re-ran; b2.squared() was a cache hit.
  EXPECT_EQ(I.runtime().stats().ProcExecutions, 1u);
  EXPECT_GE(I.runtime().stats().CacheHits, 1u);
}

TEST(InterpAlphonseTest, ConservativeTransformStillCorrect) {
  transform::TransformOptions Opts;
  Opts.OptimizeLocalAccesses = false;
  Opts.OptimizeCallChecks = false;
  auto C = compile(testing::heightTreeProgram(), true, Opts);
  ASSERT_TRUE(C->ok());
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  I.call("BuildChain", {IV(12)});
  EXPECT_EQ(I.call("RootHeight").Int, 12);
  I.call("GrowLeft", {IV(3)});
  EXPECT_EQ(I.call("RootHeight").Int, 15);
  EXPECT_FALSE(I.failed()) << I.errorMessage();
}

} // namespace
} // namespace alphonse::interp
