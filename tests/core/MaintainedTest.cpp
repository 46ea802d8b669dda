//===- MaintainedTest.cpp - Incremental procedure tests -------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the call transformation (Algorithm 5): argument tables,
/// function caching over global state (Section 4.2), demand vs eager
/// strategies, quiescence cutoffs, capacity/eviction, and chains.
///
//===----------------------------------------------------------------------===//

#include "core/Alphonse.h"

#include <gtest/gtest.h>

namespace alphonse {
namespace {

TEST(MaintainedTest, DistinctArgumentsGetDistinctInstances) {
  Runtime RT;
  int Runs = 0;
  Maintained<int(int)> Square(RT, [&Runs](int X) {
    ++Runs;
    return X * X;
  });
  EXPECT_EQ(Square(3), 9);
  EXPECT_EQ(Square(4), 16);
  EXPECT_EQ(Square(3), 9);
  EXPECT_EQ(Square(4), 16);
  EXPECT_EQ(Runs, 2);
  EXPECT_EQ(Square.numInstances(), 2u);
}

TEST(MaintainedTest, RecursiveCallsMemoize) {
  Runtime RT;
  int Runs = 0;
  Maintained<long(int)> *FibPtr = nullptr;
  Maintained<long(int)> Fib(RT, [&](int N) -> long {
    ++Runs;
    if (N < 2)
      return N;
    return (*FibPtr)(N - 1) + (*FibPtr)(N - 2);
  });
  FibPtr = &Fib;
  EXPECT_EQ(Fib(20), 6765);
  EXPECT_EQ(Runs, 21); // Linear, not exponential.
}

TEST(MaintainedTest, CachedProcedureMayReadGlobalState) {
  // The paper's second contribution (Section 4.2): cached procedures need
  // not be combinators; changes to referenced global storage update the
  // cache.
  Runtime RT;
  Cell<int> Scale(RT, 2);
  int Runs = 0;
  Cached<int(int)> Times(RT, [&](int X) {
    ++Runs;
    return X * Scale.get();
  });
  EXPECT_EQ(Times(10), 20);
  EXPECT_EQ(Times(10), 20);
  EXPECT_EQ(Runs, 1);
  Scale.set(3);
  EXPECT_EQ(Times(10), 30);
  EXPECT_EQ(Runs, 2);
}

TEST(MaintainedTest, ChangeInvalidatesOnlyAffectedInstances) {
  Runtime RT;
  Cell<int> A(RT, 1);
  Cell<int> B(RT, 2);
  int Runs = 0;
  Maintained<int(int)> F(RT, [&](int Which) {
    ++Runs;
    return Which == 0 ? A.get() : B.get();
  });
  F(0);
  F(1);
  EXPECT_EQ(Runs, 2);
  A.set(5);
  EXPECT_EQ(F(0), 5);
  EXPECT_EQ(F(1), 2);
  EXPECT_EQ(Runs, 3); // Only the instance reading A re-ran.
}

TEST(MaintainedTest, ProcedureChainsPropagate) {
  Runtime RT;
  Cell<int> Base(RT, 1);
  int GRuns = 0, FRuns = 0;
  Maintained<int()> G(RT, [&] {
    ++GRuns;
    return Base.get() + 1;
  });
  Maintained<int()> F(RT, [&] {
    ++FRuns;
    return G() * 10;
  });
  EXPECT_EQ(F(), 20);
  Base.set(4);
  EXPECT_EQ(F(), 50);
  EXPECT_EQ(GRuns, 2);
  EXPECT_EQ(FRuns, 2);
}

TEST(MaintainedTest, EagerCutoffShieldsDownstream) {
  // sign() collapses many inputs to one value; with an EAGER middle stage
  // the change 1 -> 2 dies at the cutoff and F never re-runs.
  Runtime RT;
  Cell<int> X(RT, 1);
  int SignRuns = 0, FRuns = 0;
  Maintained<int()> Sign(
      RT,
      [&] {
        ++SignRuns;
        return X.get() > 0 ? 1 : -1;
      },
      EvalStrategy::Eager);
  Maintained<int()> F(RT, [&] {
    ++FRuns;
    return Sign() * 100;
  });
  EXPECT_EQ(F(), 100);
  X.set(2); // Sign unchanged.
  RT.pump();
  EXPECT_EQ(SignRuns, 2);
  EXPECT_EQ(F(), 100);
  EXPECT_EQ(FRuns, 1); // Shielded by the quiescence cutoff.
  X.set(-5);
  RT.pump();
  EXPECT_EQ(F(), -100);
  EXPECT_EQ(FRuns, 2);
}

TEST(MaintainedTest, EagerUpdatesRunAtThePump) {
  Runtime RT;
  Cell<int> X(RT, 1);
  int Runs = 0;
  Maintained<int()> F(
      RT,
      [&] {
        ++Runs;
        return X.get();
      },
      EvalStrategy::Eager);
  F();
  X.set(2);
  EXPECT_EQ(Runs, 1);
  RT.pump(); // "Cycles available": the eager update happens here.
  EXPECT_EQ(Runs, 2);
  EXPECT_EQ(F(), 2); // Already up to date: a pure cache hit.
  EXPECT_EQ(Runs, 2);
}

TEST(MaintainedTest, DemandUpdatesWaitForTheCall) {
  Runtime RT;
  Cell<int> X(RT, 1);
  int Runs = 0;
  Maintained<int()> F(RT, [&] {
    ++Runs;
    return X.get();
  });
  F();
  X.set(2);
  X.set(3);
  EXPECT_EQ(Runs, 1); // Nothing recomputed yet.
  EXPECT_EQ(F(), 3);
  EXPECT_EQ(Runs, 2);
}

TEST(MaintainedTest, MultiArgumentKeysAreDistinguished) {
  Runtime RT;
  int Runs = 0;
  Maintained<int(int, int)> Add(RT, [&Runs](int A, int B) {
    ++Runs;
    return A + B;
  });
  EXPECT_EQ(Add(1, 2), 3);
  EXPECT_EQ(Add(2, 1), 3);
  EXPECT_EQ(Runs, 2); // (1,2) and (2,1) are different argument vectors.
  Add(1, 2);
  EXPECT_EQ(Runs, 2);
}

TEST(MaintainedTest, EraseDropsAnInstance) {
  Runtime RT;
  int Runs = 0;
  Maintained<int(int)> F(RT, [&Runs](int X) {
    ++Runs;
    return X;
  });
  F(1);
  F(2);
  EXPECT_EQ(F.numInstances(), 2u);
  F.erase(1);
  EXPECT_EQ(F.numInstances(), 1u);
  F(1); // Recomputed from scratch.
  EXPECT_EQ(Runs, 3);
}

TEST(MaintainedTest, InstanceNodeIntrospection) {
  Runtime RT;
  Cell<int> A(RT, 1);
  Maintained<int(int)> F(RT, [&A](int X) { return X + A.get(); });
  EXPECT_EQ(F.instanceNode(5), nullptr);
  F(5);
  const DepNode *N = F.instanceNode(5);
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(N->numPredecessors(), 1u); // Just the cell A.
  EXPECT_TRUE(N->isConsistent());
}

TEST(MaintainedTest, StringArgumentsAndResults) {
  Runtime RT;
  Cell<std::string> Suffix(RT, "!");
  int Runs = 0;
  Maintained<std::string(std::string)> Shout(RT, [&](std::string S) {
    ++Runs;
    return S + Suffix.get();
  });
  EXPECT_EQ(Shout("hi"), "hi!");
  EXPECT_EQ(Shout("hi"), "hi!");
  EXPECT_EQ(Runs, 1);
  Suffix.set("?");
  EXPECT_EQ(Shout("hi"), "hi?");
  EXPECT_EQ(Runs, 2);
}

TEST(MaintainedTest, ReentrantCallRunsConventionally) {
  // A procedure that (indirectly) calls itself with the same arguments
  // mid-execution — the shape Algorithm 11's balance() produces. The
  // re-entrant call must compute a fresh value, not return garbage.
  Runtime RT;
  Cell<int> Depth(RT, 1);
  Maintained<int()> *FPtr = nullptr;
  Maintained<int()> F(RT, [&]() -> int {
    int D = Depth.get();
    if (D <= 0)
      return 0;
    Depth.set(D - 1);       // Shrink the problem...
    int Inner = (*FPtr)();  // ...then re-enter ourselves.
    Depth.set(D);           // Restore (DET: net effect is deterministic).
    return Inner + 1;
  });
  FPtr = &F;
  EXPECT_EQ(F(), 1);
}

} // namespace
} // namespace alphonse
