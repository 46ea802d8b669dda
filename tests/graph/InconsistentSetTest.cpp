//===- InconsistentSetTest.cpp - Pending-set unit tests -------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct tests of the InconsistentSet min-heap, focused on mergeFrom —
/// the operation behind a union-find partition merge with work pending
/// on both sides (Section 6.3): the survivor set absorbs the loser's
/// entries and popping must still come out in non-decreasing level order.
///
//===----------------------------------------------------------------------===//

#include "graph/DepGraph.h"
#include "graph/InconsistentSet.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace alphonse {
namespace {

struct StubStorage final : DepNode {
  explicit StubStorage(DepGraph &G) : DepNode(G, NodeKind::Storage) {}
  bool refreshStorage() override { return true; }
};

struct StubProc final : DepNode {
  explicit StubProc(DepGraph &G) : DepNode(G, NodeKind::Procedure) {}
  bool reexecute() override { return true; }
};

/// Builds a linear chain rooted at a storage node so the procs get
/// levels 1, 2, ..., Len (level = 1 + max predecessor level).
struct Chain {
  Chain(DepGraph &G, int Len) : Base(std::make_unique<StubStorage>(G)) {
    DepNode *Prev = Base.get();
    for (int I = 0; I < Len; ++I) {
      Procs.push_back(std::make_unique<StubProc>(G));
      DepNode &P = *Procs.back();
      G.beginExecution(P);
      G.addDependency(P, *Prev);
      G.endExecution(P);
      Prev = &P;
    }
  }
  std::unique_ptr<StubStorage> Base;
  std::vector<std::unique_ptr<StubProc>> Procs;
};

/// Pops everything, asserting non-decreasing levels; returns the count.
size_t drainInOrder(DepGraph &G, InconsistentSet &Set) {
  size_t Count = 0;
  uint32_t LastLevel = 0;
  while (!Set.empty()) {
    DepNode &N = Set.pop(G);
    EXPECT_GE(N.level(), LastLevel) << "heap order violated after mergeFrom";
    LastLevel = N.level();
    ++Count;
  }
  return Count;
}

TEST(InconsistentSetTest, MergeFromPreservesPopOrder) {
  Statistics Stats;
  DepGraph G(Stats);
  Chain A(G, 6), B(G, 6);
  G.evaluateAll(); // Settle the construction-time pending work.

  // Interleave pushes across two sets so the merge has to re-establish
  // the heap property over a genuinely mixed level population.
  InconsistentSet Lhs, Rhs;
  Lhs.push(G, *A.Procs[5]); // level 6
  Lhs.push(G, *A.Procs[0]); // level 1
  Lhs.push(G, *B.Base);     // level 0
  Rhs.push(G, *B.Procs[3]); // level 4
  Rhs.push(G, *B.Procs[1]); // level 2
  Rhs.push(G, *A.Procs[2]); // level 3
  Rhs.push(G, *A.Base);     // level 0

  Lhs.mergeFrom(G, Rhs);
  EXPECT_TRUE(Rhs.empty());
  EXPECT_EQ(Lhs.size(), 7u);
  EXPECT_EQ(drainInOrder(G, Lhs), 7u);
}

TEST(InconsistentSetTest, MergeFromSkipsNothingAndKeepsMembershipUnique) {
  Statistics Stats;
  DepGraph G(Stats);
  Chain A(G, 4);
  G.evaluateAll();

  InconsistentSet Lhs, Rhs;
  EXPECT_TRUE(Lhs.push(G, *A.Procs[1]));
  // A node already queued (anywhere) refuses a second push: membership is
  // the node's InQueue flag, global across sets.
  EXPECT_FALSE(Rhs.push(G, *A.Procs[1]));
  EXPECT_TRUE(Rhs.push(G, *A.Procs[3]));
  EXPECT_TRUE(Rhs.push(G, *A.Base));

  Lhs.mergeFrom(G, Rhs);
  EXPECT_EQ(Lhs.size(), 3u);
  EXPECT_EQ(drainInOrder(G, Lhs), 3u);

  // Once popped, the nodes are pushable again (InQueue was cleared).
  EXPECT_TRUE(Lhs.push(G, *A.Procs[1]));
  EXPECT_EQ(&Lhs.pop(G), A.Procs[1].get());
}

TEST(InconsistentSetTest, MergeFromEmptySides) {
  Statistics Stats;
  DepGraph G(Stats);
  Chain A(G, 2);
  G.evaluateAll();

  InconsistentSet Lhs, Rhs;
  Lhs.mergeFrom(G, Rhs); // empty <- empty
  EXPECT_TRUE(Lhs.empty());

  Rhs.push(G, *A.Base);
  Rhs.push(G, *A.Procs[0]);
  Lhs.mergeFrom(G, Rhs); // empty <- populated
  EXPECT_EQ(Lhs.size(), 2u);

  InconsistentSet Rhs2;
  Lhs.mergeFrom(G, Rhs2); // populated <- empty
  EXPECT_EQ(Lhs.size(), 2u);
  EXPECT_EQ(drainInOrder(G, Lhs), 2u);
}

} // namespace
} // namespace alphonse
