//===- GraphStore.cpp - Dense slab storage for the graph ------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Storage-layer mechanics off the hot path: node-slot allocation with
/// generation bookkeeping, edge-list measurement, and the memory-footprint
/// gauges (graph.node_bytes, graph.edge_bytes, pool.high_water) published
/// on table growth. The per-edge alloc/free/link/unlink operations are
/// inline in GraphStore.h so they fold into the propagation layer's
/// re-execution fast path.
///
//===----------------------------------------------------------------------===//

#include "graph/GraphStore.h"

namespace alphonse {

GraphStore::GraphStore(Statistics &Stats) : Stats(Stats) {}

GraphStore::GraphStore(Statistics &Stats, GraphConfig Cfg)
    : Stats(Stats), Cfg(Cfg) {}

size_t GraphStore::numPredecessors(const DepNode &N) const {
  size_t Count = 0;
  for (EdgeId E = N.FirstPred; E; E = EdgeTab.edge(E).NextPred)
    ++Count;
  return Count;
}

size_t GraphStore::numSuccessors(const DepNode &N) const {
  size_t Count = 0;
  for (EdgeId E = N.FirstSucc; E; E = EdgeTab.edge(E).NextSucc)
    ++Count;
  return Count;
}

void GraphStore::refreshMemoryGauges() {
  size_t NodeBytes = NodeTab.bytesReserved();
  size_t EdgeBytes = EdgeTab.bytesReserved();
  LastNodeBytes = NodeBytes;
  LastEdgeBytes = EdgeBytes;
  Stats.GraphNodeBytes = NodeBytes;
  Stats.GraphEdgeBytes = EdgeBytes;
  if (NodeBytes + EdgeBytes > HighWaterBytes) {
    HighWaterBytes = NodeBytes + EdgeBytes;
    Stats.PoolHighWater = HighWaterBytes;
  }
}

void GraphStore::republishMemoryGauges() {
  size_t NodeBytes = NodeTab.bytesReserved();
  size_t EdgeBytes = EdgeTab.bytesReserved();
  LastNodeBytes = NodeBytes;
  LastEdgeBytes = EdgeBytes;
  Stats.GraphNodeBytes = NodeBytes;
  Stats.GraphEdgeBytes = EdgeBytes;
  // The high-water mark is monotone here (resetHighWater rebases it);
  // re-publish even when unchanged so a stats reset cannot leave the
  // published gauge behind the tracked peak.
  if (NodeBytes + EdgeBytes > HighWaterBytes)
    HighWaterBytes = NodeBytes + EdgeBytes;
  Stats.PoolHighWater = HighWaterBytes;
}

void GraphStore::resetHighWater() {
  HighWaterBytes = NodeTab.bytesReserved() + EdgeTab.bytesReserved();
  LastNodeBytes = NodeTab.bytesReserved();
  LastEdgeBytes = EdgeTab.bytesReserved();
  Stats.GraphNodeBytes = LastNodeBytes;
  Stats.GraphEdgeBytes = LastEdgeBytes;
  Stats.PoolHighWater = HighWaterBytes;
}

NodeId GraphStore::allocNodeSlot(DepNode &N) {
  NodeId Id = NodeTab.alloc(N);
  if (NodeTab.bytesReserved() != LastNodeBytes)
    refreshMemoryGauges();
  return Id;
}

void GraphStore::freeNodeSlot(NodeId Id) { NodeTab.free(Id); }

} // namespace alphonse
