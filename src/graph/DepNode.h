//===- DepNode.h - Dependency graph nodes -----------------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Nodes and edges of the dynamic dependency graph of Section 4.1 of the
/// paper. Nodes represent incremental procedure instances (maintained
/// method calls / cached procedure calls) and the storage locations they
/// access; an edge (u -> v) records that v depends on u. Both the cached
/// value `value(u)` and the status bit `consistent(u)` of the paper live in
/// (subclasses of) DepNode.
///
/// DepNode itself is value-agnostic: core's two protocol pieces
/// (alphonse::StorageNode's vertex and alphonse::ArgTable's instances)
/// subclass it and implement the two virtual hooks the evaluator needs
/// (refreshStorage and reexecute). Cell, Maintained and the Alphonse-L
/// interpreter all run those pieces, so one evaluator and one
/// instrumentation serve both the C++ embedding and the toy language.
///
/// Edges are stored by EdgeId in the graph's dense edge slab (DESIGN.md
/// "Engine layering and handle-based storage"), so an Edge is six 32-bit
/// handles — 24 bytes, half the footprint of the six raw pointers it
/// replaced — and an edge walk stays within a few slab cache lines.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_GRAPH_DEPNODE_H
#define ALPHONSE_GRAPH_DEPNODE_H

#include "graph/Handle.h"

#include <cassert>
#include <cstdint>
#include <string>

namespace alphonse {

class DepGraph;
class DepNode;

/// One dependency: Sink depends on Source.
///
/// Edges are intrusively doubly linked (by EdgeId) into both the source's
/// successor list and the sink's predecessor list, so a single edge unlinks
/// in O(1). Section 9.2 of the paper requires exactly this ("a doubly
/// linked list of bidirectional edges") so that edge removal at procedure
/// re-execution can be charged to edge creation. A re-execution keeps the
/// edges it reads again and removes only the ones it no longer reads
/// (DepGraph::beginExecution).
struct Edge {
  NodeId Source;
  NodeId Sink;
  EdgeId PrevSucc; ///< Links in Source's successor list.
  EdgeId NextSucc;
  EdgeId PrevPred; ///< Links in Sink's predecessor list.
  EdgeId NextPred;
};
static_assert(sizeof(Edge) == 24, "Edge must stay six packed 32-bit handles");

/// What a dependency-graph node stands for.
enum class NodeKind : uint8_t {
  /// A storage location (top-level variable, object field, array element).
  Storage,
  /// An incremental procedure instance: one (procedure, argument vector)
  /// pair of a maintained method or cached procedure.
  Procedure,
};

/// The paper's per-procedure evaluation strategies (Section 3.3).
enum class EvalStrategy : uint8_t {
  /// Update lazily, upon calls to the procedure.
  Demand,
  /// Update during change propagation, before subsequent call requests.
  Eager,
};

/// Base class for all dependency-graph nodes.
///
/// A node is registered with its DepGraph at construction — receiving a
/// generation-checked NodeId slot in the graph's node table — and
/// unregistered (edges detached, dependents invalidated, slot recycled) at
/// destruction. Nodes must not outlive their graph.
class DepNode {
public:
  DepNode(DepGraph &Graph, NodeKind Kind,
          EvalStrategy Strategy = EvalStrategy::Demand);
  virtual ~DepNode();

  DepNode(const DepNode &) = delete;
  DepNode &operator=(const DepNode &) = delete;

  NodeKind kind() const { return Kind; }
  bool isStorage() const { return Kind == NodeKind::Storage; }
  bool isProcedure() const { return Kind == NodeKind::Procedure; }
  EvalStrategy strategy() const { return Strategy; }

  /// This node's slot handle in the graph's node table. Valid for the
  /// node's whole registered lifetime; resolving it after destruction
  /// traps on the generation mismatch (debug) or yields null (tryNode).
  NodeId id() const { return Id; }

  /// The paper's consistent(u) bit: true when value(u) reflects the current
  /// program state. Procedures start inconsistent (never executed); storage
  /// nodes start consistent (snapshot taken at creation).
  bool isConsistent() const { return Consistent; }

  /// True while this procedure instance is on the incremental call stack.
  bool isExecuting() const { return Executing; }

  /// True while the node waits in its partition's pending set for the
  /// evaluator (Section 4.4's inconsistent set).
  bool isQueued() const { return InQueue; }

  /// True while the node sits in the graph's quarantine set: its last
  /// recompute threw, diverged, or cycled, and it takes no further part in
  /// propagation until DepGraph::resetQuarantined() returns it to service.
  bool isQuarantined() const { return Quarantined; }

  /// True while this node's cached value is *stale*: a budgeted wave was
  /// cancelled before repairing it (or a node it transitively depends
  /// on), so readers are being served the last-quiescent value. Cleared
  /// the moment a later wave re-establishes the node's consistency, or
  /// wholesale when a wave runs the graph to full quiescence. Staleness
  /// is transient engine state — never journaled or checkpointed.
  bool isStale() const { return Stale; }

  /// Depth of re-entrant (conventional) runs of this instance currently on
  /// the stack on top of its in-flight incremental execution. Nonzero
  /// means the instance's own value is being demanded while it computes —
  /// the generic in-flight cycle signal (bounded by
  /// Config::MaxReentrantDepth).
  uint32_t reentrantDepth() const { return ReentrantDepth; }

  /// Approximate topological height: 0 for storage, 1 + max source level
  /// for procedures, recorded during the last execution. Used only to order
  /// the evaluator's work; correctness never depends on it.
  uint32_t level() const { return Level; }

  DepGraph &graph() const {
    assert(Graph && "node not attached to a graph");
    return *Graph;
  }

  /// Number of predecessor edges (nodes this one depends on). O(preds).
  size_t numPredecessors() const;
  /// Number of successor edges (nodes depending on this one). O(succs).
  size_t numSuccessors() const;

  /// Invokes \p F on every dependency source recorded by the most recent
  /// execution (most recently read first). Defined in DepGraph.h (the
  /// walk resolves EdgeIds through the graph's edge table).
  template <typename Fn> void forEachPredecessor(Fn F) const;
  /// Invokes \p F on every dependent node. Defined in DepGraph.h.
  template <typename Fn> void forEachSuccessor(Fn F) const;

  /// Debug label used in dumps and diagnostics (empty until setName()).
  const std::string &name() const { return *DebugName; }
  /// Labels this node with \p Name without copying it: the node keeps a
  /// pointer, so \p Name must outlive the node (typically the owner's
  /// own name field). Temporaries are rejected at compile time.
  void setName(const std::string &Name) { DebugName = &Name; }
  void setName(std::string &&) = delete;

  /// Evaluator hook for Storage nodes: reconcile the cached snapshot with
  /// the live storage value. \returns true if they differed (the change is
  /// real and must propagate), false for quiescence (the mutator wrote the
  /// old value back, Algorithm 4 / experiment E11).
  virtual bool refreshStorage() {
    assert(false && "refreshStorage() on a non-storage node");
    return true;
  }

  /// Evaluator hook for Eager procedure nodes: re-execute the procedure
  /// through the full incremental call protocol. \returns true if the
  /// cached value changed (dependents must be notified).
  virtual bool reexecute() {
    assert(false && "reexecute() on a non-eager-procedure node");
    return true;
  }

private:
  friend class GraphStore;
  friend class GraphPolicy;
  friend class DepGraph;
  friend class InconsistentSet;

  // Fields run from 8-byte to 1-byte alignment, so the node has no
  // interior padding (see the static_assert below the class).
  DepGraph *Graph = nullptr;
  /// The label name() returns (see setName()).
  const std::string *DebugName = &NoName;
  /// Propagation stamp of ReexecCount (see below).
  uint64_t ReexecEpoch = 0;
  /// Stamp of this node's current/most recent execution (as a dependent).
  uint64_t ExecStamp = 0;
  /// As a dependency source: the sink/stamp of the most recent edge created
  /// from this node, used to skip duplicate edges when one execution reads
  /// the same location repeatedly.
  uint64_t DedupStamp = 0;
  NodeId DedupSink;
  /// This node's slot in the graph's node table (see id()).
  NodeId Id;
  EdgeId FirstPred;
  EdgeId FirstSucc;
  uint32_t Level = 0;
  /// Re-entrant conventional runs currently stacked on this instance.
  uint32_t ReentrantDepth = 0;
  /// Times the evaluator re-executed this node during the propagation
  /// stamped by ReexecEpoch (divergence accounting).
  uint32_t ReexecCount = 0;
  /// Heap position within the owning inconsistent set (valid iff InQueue).
  uint32_t QueuePos = 0;
  /// Union-find element id in the partition manager (Section 6.3).
  uint32_t Partition = 0;
  /// While this procedure executes: the oldest predecessor edge of the
  /// previous run that this run has not read again. The unread edges are
  /// the prefix [FirstPred … ReadCursor] of the newest-first list; null
  /// when that prefix is empty, and always null while idle (see
  /// DepGraph::beginExecution).
  EdgeId ReadCursor;
  NodeKind Kind;
  EvalStrategy Strategy;
  bool Consistent = false;
  bool InQueue = false;
  bool Executing = false;
  bool Quarantined = false;
  /// A dependent recorded an edge from this node while it was executing
  /// (a re-entrant read): the dependent captured this node's *transient*
  /// level, so the usual stamp/level ordering need not hold on those
  /// edges. Cleared at the next execution. Scheduling-heuristic
  /// bookkeeping only.
  bool ReadMidExecution = false;
  /// A cancelled wave left this node stale (see isStale()); the governor
  /// lists the stale nodes so a full repair can clear them wholesale.
  bool Stale = false;

  /// The label of a node nobody named.
  static inline const std::string NoName;
};
// The node is the per-vertex constant of the O(M) space bound (Section
// 9.1); cold, rarely set state belongs in side tables, not here.
static_assert(sizeof(DepNode) <= 96, "DepNode grew past 96 bytes");

} // namespace alphonse

#endif // ALPHONSE_GRAPH_DEPNODE_H
