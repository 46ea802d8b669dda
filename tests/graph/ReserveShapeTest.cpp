//===- ReserveShapeTest.cpp - Static-shape slab reservation tests ---------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the bulk-reservation API behind static graph construction
/// (DESIGN.md §14): GraphStore::reserveShape() at slab-chunk boundaries,
/// generation checking on nodes allocated from reserved slots, the bulk
/// predecessor relink, and the re-publishable / resettable memory gauges
/// the steady-state bench asserts flatness over.
///
//===----------------------------------------------------------------------===//

#include "graph/DepGraph.h"
#include "graph/Handle.h"
#include "support/Pool.h"

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

/// Reservation sizes straddling a slab chunk boundary (0, 1, one chunk,
/// one chunk plus one) cover the empty, single-chunk-partial,
/// exactly-one-chunk, and chunk-spill geometries. Node and edge slabs
/// share the chunk size.
constexpr size_t ChunkSlots = Slab<DepNode *>::ChunkSlots;
static_assert(ChunkSlots == Slab<Edge>::ChunkSlots);

TEST(ReserveShapeTest, ChunkEdgeReservations) {
  for (size_t N : {size_t(0), size_t(1), ChunkSlots, ChunkSlots + 1}) {
    SCOPED_TRACE("reserve " + std::to_string(N));
    Statistics Stats;
    DepGraph G(Stats);
    G.reserveShape(N, N);
    EXPECT_EQ(G.nodeSlotsFree(), N);
    EXPECT_EQ(G.edgeSlotsFree(), N);
    EXPECT_EQ(G.numLiveNodes(), 0u);
    EXPECT_EQ(G.numLiveEdges(), 0u);
    EXPECT_EQ(Stats.ShapeNodesReserved.total(), N);
    EXPECT_EQ(Stats.ShapeEdgesReserved.total(), N);
    // reserveShape must publish the gauges immediately, not wait for the
    // next allocation to notice the slabs grew.
    EXPECT_EQ(Stats.GraphNodeBytes.total(), G.nodeSlabBytes());
    EXPECT_EQ(Stats.GraphEdgeBytes.total(), G.edgeSlabBytes());
    EXPECT_TRUE(G.verify().empty());

    // Instantiation into the reserved slots consumes the free list
    // without growing the slabs: that is the zero-allocation guarantee
    // the steady state relies on.
    size_t NodeBytes = G.nodeSlabBytes();
    std::vector<std::unique_ptr<StubStorage>> Nodes;
    for (size_t I = 0; I < N; ++I)
      Nodes.push_back(std::make_unique<StubStorage>(G));
    EXPECT_EQ(G.nodeSlotsFree(), 0u);
    EXPECT_EQ(G.nodeSlabBytes(), NodeBytes);
    EXPECT_EQ(G.numLiveNodes(), N);
    EXPECT_TRUE(G.verify().empty());
  }
}

TEST(ReserveShapeTest, ReservedEdgeSlotsServeLinkage) {
  Statistics Stats;
  DepGraph G(Stats);
  const size_t N = ChunkSlots + 1;
  std::vector<std::unique_ptr<StubStorage>> Sources;
  StubProc Sink(G);
  for (size_t I = 0; I < N; ++I)
    Sources.push_back(std::make_unique<StubStorage>(G));

  G.reserveShape(0, N);
  ASSERT_EQ(G.edgeSlotsFree(), N);
  size_t EdgeBytes = G.edgeSlabBytes();

  G.beginExecution(Sink);
  for (auto &S : Sources)
    G.addDependency(Sink, *S);
  G.endExecution(Sink);
  EXPECT_EQ(Sink.numPredecessors(), N);
  EXPECT_EQ(G.edgeSlotsFree(), 0u);
  EXPECT_EQ(G.edgeSlabBytes(), EdgeBytes);
  // Reserved slots are handed out through the free list, so the reuse
  // counter sees them (the steady-state bench counts on this).
  EXPECT_GE(Stats.EdgeReuse.total(), N);
  G.evaluateAll();
  EXPECT_TRUE(G.verify().empty());
}

TEST(ReserveShapeTest, GenerationChecksOnStaticNodes) {
  Statistics Stats;
  DepGraph G(Stats);
  G.reserveShape(2, 0);

  // A node allocated from a reserved slot carries a live, first-generation
  // handle that resolves like any dynamically grown one.
  auto A = std::make_unique<StubStorage>(G);
  NodeId Old = A->id();
  ASSERT_TRUE(Old);
  EXPECT_EQ(Old.gen(), NodeId::FirstGen);
  EXPECT_TRUE(G.isLiveNode(Old));
  EXPECT_EQ(G.tryNode(Old), A.get());

  // Destruction bumps the generation exactly as for dynamic slots: the
  // old handle goes permanently stale even once the slot is reoccupied.
  A.reset();
  EXPECT_FALSE(G.isLiveNode(Old));
  auto B = std::make_unique<StubStorage>(G);
  EXPECT_EQ(B->id().index(), Old.index());
  EXPECT_NE(B->id().gen(), Old.gen());
  EXPECT_EQ(G.tryNode(Old), nullptr);
  EXPECT_EQ(G.tryNode(B->id()), B.get());
}

TEST(ReserveShapeTest, BulkRelinkMatchesPerEdgeOrder) {
  // relinkPredecessors must reproduce the predecessor-list order the
  // per-edge path builds (push-front linkage, so it walks sources in
  // reverse). Checkpoint restore depends on the orders agreeing.
  Statistics StatsA, StatsB;
  DepGraph A(StatsA), B(StatsB);

  StubProc SinkA(A);
  StubStorage A1(A), A2(A), A3(A);
  A.beginExecution(SinkA);
  A.addDependency(SinkA, A1);
  A.addDependency(SinkA, A2);
  A.addDependency(SinkA, A3);
  A.endExecution(SinkA);

  StubProc SinkB(B);
  StubStorage B1(B), B2(B), B3(B);
  B.relinkPredecessors(SinkB, {&B1, &B2, &B3});

  ASSERT_EQ(SinkA.numPredecessors(), 3u);
  ASSERT_EQ(SinkB.numPredecessors(), 3u);
  EXPECT_EQ(B.numLiveEdges(), 3u);
  A.evaluateAll();
  EXPECT_TRUE(A.verify().empty());
  EXPECT_TRUE(B.verify().empty());
}

TEST(ReserveShapeTest, HighWaterResetsAndGaugesRepublish) {
  Statistics Stats;
  DepGraph G(Stats);
  std::vector<std::unique_ptr<StubStorage>> Nodes;
  for (size_t I = 0; I < 2 * ChunkSlots; ++I)
    Nodes.push_back(std::make_unique<StubStorage>(G));

  // republish keeps the gauges pinned to the tables' actual footprint
  // even when nothing grew since the last publication.
  G.republishMemoryGauges();
  EXPECT_EQ(Stats.GraphNodeBytes.total(), G.nodeSlabBytes());
  EXPECT_EQ(Stats.GraphEdgeBytes.total(), G.edgeSlabBytes());

  // Resetting re-bases the high-water mark at the current footprint; churn
  // that stays inside the existing slabs must then leave it flat (this is
  // the invariant bench_static's steady-state assertion rides on). One
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

  // Growth past the reservation raises it again.
  for (size_t I = 0; I < 2 * ChunkSlots; ++I)
    Nodes.push_back(std::make_unique<StubStorage>(G));
  EXPECT_GT(Stats.PoolHighWater.total(), Base);
  G.evaluateAll();
}

} // namespace
} // namespace alphonse
