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

#include <algorithm>
#include <cstdlib>

namespace alphonse {

bool auditFromEnvironment() {
  static const bool On = [] {
    const char *V = std::getenv("ALPHONSE_AUDIT");
    return V && V[0] != '\0' && !(V[0] == '0' && V[1] == '\0');
  }();
  return On;
}

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

void GraphStore::publishMemoryGauges() {
  LastNodeBytes = NodeTab.bytesReserved();
  LastEdgeBytes = EdgeTab.bytesReserved();
  Stats.GraphNodeBytes = LastNodeBytes;
  Stats.GraphEdgeBytes = LastEdgeBytes;
  HighWaterBytes = std::max(HighWaterBytes, LastNodeBytes + LastEdgeBytes);
  Stats.PoolHighWater = HighWaterBytes;
}

void GraphStore::resetHighWater() {
  HighWaterBytes = 0; // The publish below rebases it on the tables' size.
  publishMemoryGauges();
}

NodeId GraphStore::allocNodeSlot(DepNode &N) {
  NodeId Id = NodeTab.alloc(N);
  if (NodeTab.bytesReserved() != LastNodeBytes)
    publishMemoryGauges();
  return Id;
}

void GraphStore::freeNodeSlot(NodeId Id) { NodeTab.free(Id); }

} // namespace alphonse
