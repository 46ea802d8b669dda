//===- StatisticsTest.cpp - Runtime counter tests -------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the runtime counters. One thread at a time drives a Runtime,
/// so each counter is a plain 64-bit integer: it must behave like one at
/// every call site (increments, assignment, implicit reads), and reset()
/// must zero the whole block.
///
//===----------------------------------------------------------------------===//

#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace alphonse {
namespace {

TEST(StatisticsTest, CountersArePlainIntegers) {
  static_assert(sizeof(Statistics) % sizeof(uint64_t) == 0,
                "Statistics holds nothing but 8-byte counters");
  StatCounter C;
  ++C;
  C++;
  C += 40;
  EXPECT_EQ(C.total(), 42u);
  uint64_t V = C;
  EXPECT_EQ(V, 42u);
  StatCounter Copy = C;
  C = 7;
  EXPECT_EQ(C.total(), 7u);
  EXPECT_EQ(Copy.total(), 42u);

  Statistics S;
  S.NodesCreated += 5;
  ++S.NodesDestroyed;
  S.EdgesCreated = 9;
  S.EdgesRemoved += 4;
  EXPECT_EQ(S.liveNodes(), 4u);
  EXPECT_EQ(S.liveEdges(), 5u);
}

TEST(StatisticsTest, ResetZeroesEverySlot) {
  Statistics S;
  ++S.EvalSteps;
  S.EvalSteps += 7;
  S.ProcExecutions = 3;
  S.GovWatchdogQuarantines += 2;
  S.PoolHighWater = 4096;
  ASSERT_EQ(S.EvalSteps.total(), 8u);
  S.reset();
  // Every printed counter reads 0.
  std::ostringstream OS;
  OS << S;
  std::istringstream Lines(OS.str());
  std::string Line;
  size_t Count = 0;
  while (std::getline(Lines, Line)) {
    ++Count;
    EXPECT_EQ(Line.substr(Line.find_last_of(' ') + 1), "0") << Line;
  }
  EXPECT_GT(Count, 40u);
  // The counters stay usable after a reset.
  ++S.EvalSteps;
  EXPECT_EQ(S.EvalSteps.total(), 1u);
}

} // namespace
} // namespace alphonse
