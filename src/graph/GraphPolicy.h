//===- GraphPolicy.h - Partition, quarantine, journal policy ----*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The policy layer of the dependency-graph engine (DESIGN.md "Engine
/// layering and handle-based storage"): dynamic graph partitioning
/// (Section 6.3) with per-partition pending sets, change tracking
/// (Section 4.4's markInconsistent), the quarantine fault set, and the
/// transactional undo journal's bookkeeping primitives. It sits on
/// GraphStore and knows nothing about the evaluation loops above it; the
/// transaction *drivers* (beginBatch / commitBatch / rollbackBatch) live
/// in DepGraph because committing runs the evaluator.
///
/// Partitions exist so that unrelated structures are not evaluated
/// (Section 6.3), not to evaluate them concurrently: the graph is
/// single-threaded.
///
/// All hot lookups here are dense and id-indexed: pending sets are a
/// vector indexed by union-find root, the quarantine set is a flat
/// {NodeId, fault} vector, and journal entries carry NodeIds — no
/// pointer-keyed hash map survives on a propagation path.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_GRAPH_GRAPHPOLICY_H
#define ALPHONSE_GRAPH_GRAPHPOLICY_H

#include "graph/GraphStore.h"
#include "graph/InconsistentSet.h"
#include "graph/UndoLog.h"
#include "support/FaultInfo.h"
#include "support/UnionFind.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace alphonse {

/// Policy layer: partitions, pending sets, quarantine, journal.
class GraphPolicy : public GraphStore {
public:
  explicit GraphPolicy(Statistics &Stats) : GraphStore(Stats) {}
  GraphPolicy(Statistics &Stats, GraphConfig Cfg) : GraphStore(Stats, Cfg) {}

  /// Number of nodes pending in inconsistent sets.
  size_t numPending() const { return TotalPending; }

  /// Adds \p N to its partition's inconsistent set (Section 4.4). Used for
  /// changed storage and for explicit invalidation. Inline: this is the
  /// change-notification fast path, run once per edge of every dirtied
  /// node's successor fan-out.
  void markInconsistent(DepNode &N) {
    // Quarantined nodes take no further part in propagation until reset.
    if (N.Quarantined)
      return;
    // A demand procedure that is already inconsistent has already notified
    // its dependents; queueing it again would be a no-op at processing
    // time.
    if (N.isProcedure() && N.Strategy == EvalStrategy::Demand &&
        !N.Consistent && !N.Executing)
      return;
    UnionFind::Id Root = Partitions.find(N.Partition);
    if (SetVec.size() <= Root)
      SetVec.resize(Root + 1);
    if (!SetVec[Root].push(*this, N))
      return;
    ++TotalPending;
    DirtyRoots.push_back(Root);
  }

  /// True if the partition containing \p N has pending work (with
  /// partitioning disabled, if anything is pending).
  bool hasPendingFor(DepNode &N) {
    InconsistentSet *S = findSet(Partitions.find(N.Partition));
    return S && !S->empty();
  }

  /// True when the given nodes are currently in the same partition.
  bool samePartition(DepNode &A, DepNode &B);

  /// Elements of the partition forest (Section 6.3): one per node
  /// registered since the forest was last compacted.
  size_t numPartitionElements() const { return Partitions.size(); }

  //===--------------------------------------------------------------------===//
  // Transactional journal bookkeeping — see DESIGN.md "Transactions and
  // recovery". The batch drivers live in DepGraph (commit evaluates).
  //===--------------------------------------------------------------------===//

  /// True between beginBatch() and the matching commitBatch()/
  /// rollbackBatch(). Typed layers consult this to decide whether to
  /// journal their mutations.
  bool inBatch() const { return TxnActive; }

  /// Monotonic commit/rollback counter: advanced once per batch outcome
  /// (either way), never reused. External state keyed to an epoch is
  /// stale whenever the graph's epoch differs.
  uint64_t epoch() const { return Epoch; }

  /// The first fault that aborted the last commitBatch(), or nullptr if
  /// the last batch committed (or none ran).
  const FaultInfo *abortFault() const {
    return AbortFault ? &*AbortFault : nullptr;
  }

  /// Appends a typed-layer restore closure to the journal. Only valid
  /// inside a batch; no-op while a rollback is replaying (the replay must
  /// not journal its own restores).
  void logUndo(std::function<void()> Undo);

  /// Journal size of the current batch (test/stats visibility).
  size_t undoLogSize() const { return Journal.size(); }

  //===--------------------------------------------------------------------===//
  // Failure model (quarantine, divergence, cycles) — see DESIGN.md
  //===--------------------------------------------------------------------===//

  /// Number of nodes currently quarantined.
  size_t numQuarantined() const { return Quarantine.size(); }

  /// The captured fault of a quarantined node, or nullptr. The pointer is
  /// valid until the quarantine set next changes (dense-vector storage).
  const FaultInfo *fault(const DepNode &N) const;

  /// Every quarantined node with its fault (order unspecified; fault
  /// pointers valid until the quarantine set next changes).
  std::vector<std::pair<DepNode *, const FaultInfo *>> quarantined() const;

  /// Moves \p N to the quarantine set: it is pulled from its pending set,
  /// flagged inconsistent, and ignored by markInconsistent() until reset.
  /// Its dependents are queued so they discover the fault (and cascade)
  /// at their next recompute instead of silently serving stale values.
  /// No-op if already quarantined (the first fault wins).
  void quarantine(DepNode &N, FaultInfo FI);

  /// Returns a quarantined node to service: the fault is dropped and the
  /// node is left inconsistent (eager nodes re-queue) so its next
  /// call/pump recomputes it. \returns false if \p N was not quarantined.
  bool resetQuarantined(DepNode &N);

  /// Resets every quarantined node. \returns how many were reset.
  size_t resetAllQuarantined();

protected:
  friend class DepNode;

  /// The pending set responsible for \p N (grows SetVec on demand).
  InconsistentSet &setFor(DepNode &N);

  /// The pending set of root \p Root, or nullptr if none was ever grown.
  InconsistentSet *findSet(UnionFind::Id Root) {
    return Root < SetVec.size() ? &SetVec[Root] : nullptr;
  }

  /// Removes a queued node from its partition's pending set and fixes the
  /// TotalPending count (used by unregisterNode and quarantine).
  void eraseFromPendingSets(DepNode &N);

  /// Empties every pending set (rollback's final step: the pre-batch
  /// state was quiescent, so nothing may stay queued).
  void clearAllPending();

  /// Unites the partitions rooted at \p RootA and \p RootB (both must be
  /// current roots), merging the orphaned pending set into the merged
  /// root's. \returns the merged root.
  UnionFind::Id uniteRoots(UnionFind::Id RootA, UnionFind::Id RootB);

  /// Queues every dependent of \p N (change notification, Section 4.4).
  /// An edge that a running dependent has not read again is skipped: that
  /// run has not seen N's value yet, and reads the new one if it reads N
  /// at all.
  void enqueueSuccessors(DepNode &N) {
    for (EdgeId E = N.FirstSucc; E;) {
      const Edge &Ed = edge(E);
      EdgeId Next = Ed.NextSucc;
      DepNode &Sink = node(Ed.Sink);
      if (!isUnread(Sink, E))
        markInconsistent(Sink);
      E = Next;
    }
  }

  /// True when mutations should be journaled: inside a batch, but not
  /// while rollback itself is replaying.
  bool journaling() const { return TxnActive && !TxnRollingBack; }

  /// Index of \p Id's quarantine entry, or npos.
  size_t findFault(NodeId Id) const;

  UnionFind Partitions;
  /// Pending sets indexed by union-find root id (dense; grown on demand).
  std::vector<InconsistentSet> SetVec;
  /// Roots that may have pending work (may contain stale ids).
  std::vector<UnionFind::Id> DirtyRoots;
  size_t TotalPending = 0;

  /// Quarantined nodes and their captured faults (dense; quarantine sets
  /// are tiny, linear scans beat hashing).
  std::vector<std::pair<NodeId, FaultInfo>> Quarantine;

  /// Undo journal of the active batch (empty outside one).
  UndoLog Journal;
  /// A batch is open (beginBatch .. commit/rollback).
  bool TxnActive = false;
  /// rollbackBatch() is replaying; suppresses journaling and scrubbing.
  bool TxnRollingBack = false;
  /// Nodes quarantined since beginBatch(); any nonzero value aborts the
  /// commit.
  uint64_t TxnNewFaults = 0;
  /// First in-batch fault (the abort reason surfaced by abortFault()).
  std::optional<FaultInfo> AbortFault;
  /// Commit/rollback epoch (see epoch()).
  uint64_t Epoch = 1;
};

} // namespace alphonse

#endif // ALPHONSE_GRAPH_GRAPHPOLICY_H
