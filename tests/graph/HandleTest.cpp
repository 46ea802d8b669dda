//===- HandleTest.cpp - Generation-checked handle / slab tests ------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the handle-based graph core (DESIGN.md "Engine layering and
/// handle-based storage"): NodeId/EdgeId generation arithmetic, slot
/// recycling through the node and edge tables, stale-handle detection, the
/// bulk predecessor relink, the resettable memory gauges, and a randomized
/// create/link/destroy churn audited by DepGraph::verify().
///
//===----------------------------------------------------------------------===//

#include "graph/DepGraph.h"
#include "graph/Handle.h"
#include "support/Pool.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
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

TEST(HandleTest, NullAndGenerationArithmetic) {
  NodeId Null;
  EXPECT_FALSE(Null);
  EXPECT_EQ(Null.bits(), 0u);

  NodeId Id = NodeId::make(7, NodeId::FirstGen);
  EXPECT_TRUE(Id);
  EXPECT_EQ(Id.index(), 7u);
  EXPECT_EQ(Id.gen(), NodeId::FirstGen);

  // Generations cycle through 1..MaxGen and never touch 0, so a recycled
  // slot's handle can never collide with the null handle.
  uint8_t G = NodeId::FirstGen;
  for (unsigned I = 0; I < 2 * NodeId::MaxGen; ++I) {
    G = NodeId::nextGen(G);
    EXPECT_NE(G, 0u);
  }
  EXPECT_EQ(NodeId::nextGen(NodeId::MaxGen), NodeId::FirstGen);

  // NodeId and EdgeId are distinct types; equal bit patterns still
  // compare equal only within one handle type.
  EXPECT_EQ(NodeId::make(3, 2), NodeId::make(3, 2));
  EXPECT_NE(NodeId::make(3, 2), NodeId::make(3, 3));
}

TEST(HandleTest, EdgeStaysPacked) {
  // Acceptance bound of the slab refactor: six packed 32-bit handles.
  EXPECT_LE(sizeof(Edge), 24u);
}

TEST(HandleTest, NodeSlotRecyclingBumpsGeneration) {
  Statistics Stats;
  DepGraph G(Stats);

  auto A = std::make_unique<StubStorage>(G);
  NodeId Old = A->id();
  ASSERT_TRUE(Old);
  EXPECT_TRUE(G.isLiveNode(Old));
  EXPECT_EQ(G.tryNode(Old), A.get());

  A.reset(); // Frees the slot; the generation advances.
  EXPECT_FALSE(G.isLiveNode(Old));
  EXPECT_EQ(G.tryNode(Old), nullptr);

  // The next allocation reuses the freed slot (LIFO free list) under a
  // fresh generation: same index, different handle.
  auto B = std::make_unique<StubStorage>(G);
  NodeId New = B->id();
  EXPECT_EQ(New.index(), Old.index());
  EXPECT_NE(New.gen(), Old.gen());
  EXPECT_NE(New, Old);

  // The stale handle still resolves to nothing even though the slot is
  // occupied again.
  EXPECT_FALSE(G.isLiveNode(Old));
  EXPECT_EQ(G.tryNode(Old), nullptr);
  EXPECT_TRUE(G.isLiveNode(New));
  EXPECT_EQ(G.tryNode(New), B.get());
}

TEST(HandleTest, EdgeSlotsAreRecycled) {
  Statistics Stats;
  DepGraph G(Stats);

  StubStorage Src(G);
  StubProc Sink(G);

  // Record, retract, re-record the same dependency: the second edge must
  // come from the free list, not fresh slab growth.
  G.beginExecution(Sink);
  G.addDependency(Sink, Src);
  G.endExecution(Sink);

  G.removePredEdges(Sink);
  EXPECT_EQ(Sink.numPredecessors(), 0u);
  // Snapshot after the retraction so the free list's own capacity (part
  // of bytesReserved) is already counted.
  size_t Reserved = G.edgeSlabBytes();

  G.beginExecution(Sink);
  G.addDependency(Sink, Src);
  G.endExecution(Sink);
  EXPECT_EQ(Sink.numPredecessors(), 1u);
  EXPECT_GE(Stats.EdgeReuse.total(), 1u);
  EXPECT_EQ(G.edgeSlabBytes(), Reserved);
  G.evaluateAll();
}

TEST(HandleTest, MemoryGaugesTrackSlabs) {
  Statistics Stats;
  DepGraph G(Stats);
  std::vector<std::unique_ptr<StubStorage>> Nodes;
  for (int I = 0; I < 64; ++I)
    Nodes.push_back(std::make_unique<StubStorage>(G));
  EXPECT_EQ(Stats.GraphNodeBytes.total(), G.nodeSlabBytes());
  EXPECT_GT(Stats.GraphNodeBytes.total(), 0u);
  EXPECT_GE(Stats.PoolHighWater.total(),
            Stats.GraphNodeBytes.total() + Stats.GraphEdgeBytes.total());
  G.evaluateAll();
}

TEST(HandleTest, HighWaterResetsAndGaugesRepublish) {
  constexpr size_t ChunkSlots = Slab<DepNode *>::ChunkSlots;
  Statistics Stats;
  DepGraph G(Stats);
  std::vector<std::unique_ptr<StubStorage>> Nodes;
  for (size_t I = 0; I < 2 * ChunkSlots; ++I)
    Nodes.push_back(std::make_unique<StubStorage>(G));

  // Publishing keeps the gauges pinned to the tables' actual footprint
  // even when nothing grew since the last publication.
  G.publishMemoryGauges();
  EXPECT_EQ(Stats.GraphNodeBytes.total(), G.nodeSlabBytes());
  EXPECT_EQ(Stats.GraphEdgeBytes.total(), G.edgeSlabBytes());

  // Resetting re-bases the high-water mark at the current footprint; churn
  // that stays inside the existing slabs must then leave it flat (the
  // invariant bench_interp's steady-state assertion rides on). One
  // warm-up round first: the very first free grows the free-list vector,
  // which counts toward the footprint.
  Nodes.pop_back();
  Nodes.push_back(std::make_unique<StubStorage>(G));
  G.resetHighWater();
  size_t Base = Stats.PoolHighWater.total();
  EXPECT_EQ(Base, G.nodeSlabBytes() + G.edgeSlabBytes());
  for (int Round = 0; Round < 10; ++Round) {
    Nodes.pop_back();
    Nodes.push_back(std::make_unique<StubStorage>(G));
  }
  EXPECT_EQ(Stats.PoolHighWater.total(), Base);

  // Growth past the existing slabs raises it again.
  for (size_t I = 0; I < 2 * ChunkSlots; ++I)
    Nodes.push_back(std::make_unique<StubStorage>(G));
  EXPECT_GT(Stats.PoolHighWater.total(), Base);
  G.evaluateAll();
}

/// Randomized churn: create and destroy nodes while recording random
/// dependencies, pumping, and auditing. Slot recycling, journal-free edge
/// teardown, pending-set erasure, and partition merges all interleave;
/// verify() must stay clean throughout.
TEST(HandleTest, RandomizedChurnKeepsVerifyClean) {
  Statistics Stats;
  DepGraph G(Stats);
  std::mt19937 Rng(20260806);

  std::vector<std::unique_ptr<StubStorage>> Storage;
  std::vector<std::unique_ptr<StubProc>> Procs;
  std::vector<NodeId> Dead;

  for (int Step = 0; Step < 600; ++Step) {
    switch (Rng() % 5) {
    case 0:
      Storage.push_back(std::make_unique<StubStorage>(G));
      break;
    case 1:
      Procs.push_back(std::make_unique<StubProc>(G));
      break;
    case 2: { // Record a random dependency.
      if (Procs.empty() || Storage.empty())
        break;
      DepNode &Sink = *Procs[Rng() % Procs.size()];
      DepNode &Src = *Storage[Rng() % Storage.size()];
      G.beginExecution(Sink);
      G.addDependency(Sink, Src);
      G.endExecution(Sink);
      break;
    }
    case 3: { // Destroy a random node (recycles its slot).
      if (Rng() % 2 == 0 && !Storage.empty()) {
        size_t I = Rng() % Storage.size();
        Dead.push_back(Storage[I]->id());
        Storage.erase(Storage.begin() + I);
      } else if (!Procs.empty()) {
        size_t I = Rng() % Procs.size();
        Dead.push_back(Procs[I]->id());
        Procs.erase(Procs.begin() + I);
      }
      break;
    }
    case 4:
      G.evaluateAll();
      break;
    }

    if (Step % 97 == 0) {
      G.evaluateAll();
      std::vector<std::string> Bad = G.verify();
      ASSERT_TRUE(Bad.empty()) << "audit after step " << Step << ": "
                               << Bad.front();
    }
  }

  G.evaluateAll();
  EXPECT_TRUE(G.verify().empty());

  // Every handle of a destroyed node is permanently stale, regardless of
  // how many times its slot was recycled since.
  for (NodeId Id : Dead) {
    EXPECT_FALSE(G.isLiveNode(Id));
    EXPECT_EQ(G.tryNode(Id), nullptr);
  }
}

} // namespace
} // namespace alphonse
