//===- GraphStore.h - Dense slab storage for the graph ----------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The storage layer of the dependency-graph engine (DESIGN.md "Engine
/// layering and handle-based storage"). GraphStore owns the dense
/// generation-checked node and edge tables, the raw doubly-linked edge
/// lists (Section 9.2's O(1) edge removal), the live counts, and the
/// engine configuration. It knows nothing about pending sets, partitions,
/// quarantine, transactions, or evaluation — those live in the layers
/// stacked on top (GraphPolicy, DepGraph).
///
/// Layering (each layer sees only the ones below it):
///
///   GraphStore   — node/edge slabs, edge linkage, config, stats
///      ^
///   GraphPolicy  — partitions, pending sets, quarantine, undo journal
///      ^
///   DepGraph     — change propagation, execution protocol, transaction
///                  drivers, audits (the façade clients program against)
///
/// A graph is single-threaded: one thread at a time drives it, so none of
/// the layers locks anything.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_GRAPH_GRAPHSTORE_H
#define ALPHONSE_GRAPH_GRAPHSTORE_H

#include "graph/DepNode.h"
#include "support/Pool.h"
#include "support/Statistics.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace alphonse {

/// True when the ALPHONSE_AUDIT environment variable is set and not "0".
/// Read once per process; the default of GraphConfig::Audit.
bool auditFromEnvironment();

/// Engine tunables; the defaults match the paper, the flags exist for the
/// ablation experiments in DESIGN.md Section 5. (DepGraph::Config is an
/// alias of this, so clients keep writing DepGraph::Config.)
struct GraphConfig {
  /// Keep one inconsistent set per union-find partition (Section 6.3) so
  /// that changes in unrelated structures do not force evaluation. When
  /// off, every node joins one shared partition.
  bool Partitioning = true;
  /// Suppress propagation from storage whose live value equals the cached
  /// snapshot (Algorithm 4's value comparison; experiment E11).
  bool VariableCutoff = true;
  /// Run verify() after every outermost drain and every transactional
  /// rollback, and abort the process (fatalError) on any finding. A gate
  /// for tests and debugging; its default comes from ALPHONSE_AUDIT, so
  /// every graph honours that switch, sessions included.
  bool Audit = auditFromEnvironment();
  /// Abort a propagation after this many evaluator steps (0 = unlimited).
  /// The node being processed when the limit trips is quarantined with a
  /// StepLimit fault and the remaining pending work is left queued for a
  /// later pump. A global backstop behind the per-node limits below; the
  /// generous default only fires on runaway DET-violating programs.
  uint64_t EvalStepLimit = 10'000'000;
  /// Quarantine a node re-executed more than this many times within one
  /// propagation (0 = unlimited): a DET-violating procedure that keeps
  /// invalidating itself would otherwise loop forever.
  uint32_t MaxReexecutions = 100'000;
  /// Quarantine an instance whose re-entrant (in-flight) call chain
  /// nests deeper than this (0 = unlimited): a dependency cycle demands
  /// its own value while computing it and would otherwise recurse until
  /// stack overflow. Legitimate re-entrancy (Algorithm 11's balance)
  /// nests only a few frames.
  uint32_t MaxReentrantDepth = 64;
  /// Read by nothing; kept only until perfbench stops assigning it.
  unsigned Workers = 0;
  /// Watchdog: quarantine a node (FaultKind::Deadline) after this many
  /// single evaluations that each consumed an entire wave deadline by
  /// themselves (0 = never). Only armed while a deadline-budgeted wave is
  /// running; keeps one pathological node from starving every governed
  /// wave (DESIGN.md Section 11).
  uint32_t WatchdogTrips = 3;
};

/// Dense node table: NodeId -> DepNode* with per-slot generations.
///
/// The graph does not own node objects (the typed layers do); the table
/// holds back-pointers so handles resolve in two indexed loads. Slots are
/// recycled through a free list; freeing bumps the slot's generation, so
/// a handle kept across the free stops matching (stale-handle trap).
class NodeTable {
public:
  /// Claims a slot for \p N and returns its handle.
  NodeId alloc(DepNode &N) {
    uint32_t Index;
    if (!Free.empty()) {
      Index = Free.back();
      Free.pop_back();
    } else {
      Index = grow();
    }
    auto [Slot, Gen] = Slots.at(Index);
    Slot = &N;
    return NodeId::make(Index, Gen);
  }

  /// Releases \p Id's slot and advances its generation.
  void free(NodeId Id) {
    assert(isLive(Id) && "freeing a stale or null NodeId");
    auto [Slot, Gen] = Slots.at(Id.index());
    Slot = nullptr;
    Gen = NodeId::nextGen(Gen);
    Free.push_back(Id.index());
  }

  /// True when \p Id names a currently allocated slot of its generation.
  bool isLive(NodeId Id) const { return tryNode(Id) != nullptr; }

  /// Resolves a live handle; asserts (debug) on stale or null handles.
  DepNode &node(NodeId Id) const {
    assert(isLive(Id) && "resolving a stale or null NodeId");
    return *Slots[Id.index()];
  }

  /// Resolves \p Id, or nullptr when it is null, freed, or stale.
  DepNode *tryNode(NodeId Id) const {
    if (!Id || Id.index() >= Slots.size())
      return nullptr;
    auto [Slot, Gen] = Slots.at(Id.index());
    return Gen == Id.gen() ? Slot : nullptr;
  }

  /// One past the highest index ever allocated (for table scans).
  uint32_t span() const { return Slots.size(); }
  /// The occupant of slot \p Index, or nullptr for a free slot.
  DepNode *at(uint32_t Index) const { return Slots[Index]; }

  /// Bytes reserved by the table's slab and free list.
  size_t bytesReserved() const {
    return Slots.bytesReserved() + Free.capacity() * sizeof(uint32_t);
  }

private:
  /// Appends a fresh first-generation slot.
  uint32_t grow() {
    uint32_t Index = Slots.push();
    assert(Index <= NodeId::MaxIndex && "node table exhausted (2^24 slots)");
    Slots.at(Index).Gen = NodeId::FirstGen;
    return Index;
  }

  Slab<DepNode *> Slots;
  std::vector<uint32_t> Free;
};

/// Dense edge table: EdgeId -> Edge with per-slot generations.
///
/// Edges are graph-owned values living directly in the slab (24 bytes
/// each); allocation recycles freed slots through a free list.
class EdgeTable {
public:
  /// Claims a slot and returns its handle. Sets \p Reused when the slot
  /// came from the free list; a reused slot keeps its dead contents
  /// (linkEdge writes every field, so clearing here would be wasted work
  /// on the hottest allocation path in the engine).
  EdgeId alloc(bool &Reused) {
    uint32_t Index;
    Reused = !Free.empty();
    if (Reused) {
      Index = Free.back();
      Free.pop_back();
    } else {
      Index = grow();
    }
    return EdgeId::make(Index, Slots.at(Index).Gen);
  }

  /// Releases \p Id's slot and advances its generation.
  void free(EdgeId Id) {
    assert(isLive(Id) && "freeing a stale or null EdgeId");
    uint8_t &Gen = Slots.at(Id.index()).Gen;
    Gen = EdgeId::nextGen(Gen);
    Free.push_back(Id.index());
  }

  bool isLive(EdgeId Id) const {
    return Id && Id.index() < Slots.size() &&
           Slots.at(Id.index()).Gen == Id.gen();
  }

  Edge &edge(EdgeId Id) {
    assert(isLive(Id) && "resolving a stale or null EdgeId");
    return Slots[Id.index()];
  }
  const Edge &edge(EdgeId Id) const {
    assert(isLive(Id) && "resolving a stale or null EdgeId");
    return Slots[Id.index()];
  }

  size_t bytesReserved() const {
    return Slots.bytesReserved() + Free.capacity() * sizeof(uint32_t);
  }

private:
  /// Appends a fresh first-generation slot.
  uint32_t grow() {
    uint32_t Index = Slots.push();
    assert(Index <= EdgeId::MaxIndex && "edge table exhausted (2^24 slots)");
    Slots.at(Index).Gen = EdgeId::FirstGen;
    return Index;
  }

  Slab<Edge> Slots;
  std::vector<uint32_t> Free;
};

/// Storage layer: slab-backed node/edge tables plus raw edge linkage.
class GraphStore {
public:
  using Config = GraphConfig;

  explicit GraphStore(Statistics &Stats);
  GraphStore(Statistics &Stats, GraphConfig Cfg);

  GraphStore(const GraphStore &) = delete;
  GraphStore &operator=(const GraphStore &) = delete;

  const GraphConfig &config() const { return Cfg; }
  Statistics &stats() { return Stats; }

  /// Number of nodes currently registered.
  size_t numLiveNodes() const { return NumLiveNodes; }
  /// Number of edges currently linked.
  size_t numLiveEdges() const { return NumLiveEdges; }

  /// Resolves a live node handle (debug-asserts on stale/null handles).
  DepNode &node(NodeId Id) const { return NodeTab.node(Id); }
  /// Resolves a node handle, or nullptr when null, freed, or stale.
  DepNode *tryNode(NodeId Id) const { return NodeTab.tryNode(Id); }
  /// True when \p Id resolves to a live node of its generation.
  bool isLiveNode(NodeId Id) const { return NodeTab.isLive(Id); }

  Edge &edge(EdgeId Id) { return EdgeTab.edge(Id); }
  const Edge &edge(EdgeId Id) const { return EdgeTab.edge(Id); }
  bool isLiveEdge(EdgeId Id) const { return EdgeTab.isLive(Id); }

  /// Bytes reserved by the node table (slab + free list): the
  /// graph.node_bytes statistic.
  size_t nodeSlabBytes() const { return NodeTab.bytesReserved(); }
  /// Bytes reserved by the edge table: the graph.edge_bytes statistic.
  size_t edgeSlabBytes() const { return EdgeTab.bytesReserved(); }

  size_t numPredecessors(const DepNode &N) const;
  size_t numSuccessors(const DepNode &N) const;

  /// Publishes graph.node_bytes / graph.edge_bytes / pool.high_water from
  /// the tables' current reservations, raising the high-water mark if
  /// they exceed it. The allocators call this when a table grows, and
  /// rollbackBatch after its journal closures freed nodes and edges.
  void publishMemoryGauges();

  /// Rebases the pool.high_water mark to the tables' current combined
  /// reservation (and publishes all three gauges), so a bench can scope
  /// the mark to a churn phase: reset after warm-up, then assert the
  /// gauge stayed flat.
  void resetHighWater();

protected:
  friend class DepNode;

  /// Claims a node-table slot for \p N (memory gauges published on growth).
  NodeId allocNodeSlot(DepNode &N);
  void freeNodeSlot(NodeId Id);

  /// Claims an edge slot (EdgeReuse counted, gauges published on growth).
  /// Inline: edge alloc/free/link/unlink sit on the paths that record
  /// and trim a run's referenced-argument set, so they must fold into
  /// their callers across the layer split.
  EdgeId allocEdge() {
    bool Reused = false;
    EdgeId Id = EdgeTab.alloc(Reused);
    if (Reused)
      ++Stats.EdgeReuse;
    else if (EdgeTab.bytesReserved() != LastEdgeBytes)
      publishMemoryGauges();
    return Id;
  }
  void freeEdgeSlot(EdgeId Id) { EdgeTab.free(Id); }

  /// Pushes edge \p Id onto the front of \p Source's successor list and
  /// splices it into \p Sink's predecessor list right after edge \p After
  /// (at the front when \p After is null), setting every edge field.
  void linkEdge(EdgeId Id, DepNode &Source, DepNode &Sink, EdgeId After) {
    Edge &E = EdgeTab.edge(Id);
    E.Source = Source.Id;
    E.Sink = Sink.Id;
    // Push onto the source's successor list.
    E.NextSucc = Source.FirstSucc;
    E.PrevSucc = EdgeId();
    if (Source.FirstSucc)
      EdgeTab.edge(Source.FirstSucc).PrevSucc = Id;
    Source.FirstSucc = Id;
    // Splice into the sink's predecessor list.
    EdgeId &Next = After ? EdgeTab.edge(After).NextPred : Sink.FirstPred;
    E.NextPred = Next;
    E.PrevPred = After;
    if (Next)
      EdgeTab.edge(Next).PrevPred = Id;
    Next = Id;
  }

  /// True when edge \p Id of \p Sink lies in the prefix of its predecessor
  /// list that the sink's running execution has not read again (see
  /// DepNode::ReadCursor); always false for an idle sink. O(unread edges).
  bool isUnread(const DepNode &Sink, EdgeId Id) const {
    for (EdgeId E = Sink.ReadCursor; E; E = EdgeTab.edge(E).PrevPred)
      if (E == Id)
        return true;
    return false;
  }

  /// Detaches edge \p Id from both intrusive lists (slot not freed).
  void unlinkEdge(EdgeId Id) {
    Edge &E = EdgeTab.edge(Id);
    // Successor list of the source.
    if (E.PrevSucc)
      EdgeTab.edge(E.PrevSucc).NextSucc = E.NextSucc;
    else
      NodeTab.node(E.Source).FirstSucc = E.NextSucc;
    if (E.NextSucc)
      EdgeTab.edge(E.NextSucc).PrevSucc = E.PrevSucc;
    // Predecessor list of the sink.
    if (E.PrevPred)
      EdgeTab.edge(E.PrevPred).NextPred = E.NextPred;
    else
      NodeTab.node(E.Sink).FirstPred = E.NextPred;
    if (E.NextPred)
      EdgeTab.edge(E.NextPred).PrevPred = E.PrevPred;
  }

  Statistics &Stats;
  GraphConfig Cfg;

  NodeTable NodeTab;
  EdgeTable EdgeTab;

  size_t NumLiveNodes = 0;
  size_t NumLiveEdges = 0;

  /// Last-published table reservations (the allocators publish only when
  /// a reservation moved).
  size_t LastNodeBytes = 0;
  size_t LastEdgeBytes = 0;
  /// Peak combined table reservation (pool.high_water).
  size_t HighWaterBytes = 0;
};

} // namespace alphonse

#endif // ALPHONSE_GRAPH_GRAPHSTORE_H
