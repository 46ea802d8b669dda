//===- GraphPolicy.cpp - Partition, quarantine, journal policy ------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements change tracking (Section 4.4), dynamic graph partitioning
/// (Section 6.3), the quarantine fault set, and journal bookkeeping over
/// the dense id-indexed structures declared in GraphPolicy.h.
///
//===----------------------------------------------------------------------===//

#include "graph/GraphPolicy.h"

#include <cassert>

namespace alphonse {

//===----------------------------------------------------------------------===//
// Pending sets and partitions
//===----------------------------------------------------------------------===//

InconsistentSet &GraphPolicy::setFor(DepNode &N) {
  UnionFind::Id Root = Partitions.find(N.Partition);
  if (SetVec.size() <= Root)
    SetVec.resize(Root + 1);
  return SetVec[Root];
}

bool GraphPolicy::samePartition(DepNode &A, DepNode &B) {
  return Partitions.find(A.Partition) == Partitions.find(B.Partition);
}

void GraphPolicy::eraseFromPendingSets(DepNode &N) {
  if (!N.InQueue)
    return;
  // Every union moves the orphaned set's entries into the merged root's
  // set (uniteRoots), so a queued node always sits in its root's set.
  setFor(N).erase(*this, N);
  assert(!N.InQueue && "queued node not found in its partition's set");
  --TotalPending;
}

UnionFind::Id GraphPolicy::uniteRoots(UnionFind::Id RootA,
                                      UnionFind::Id RootB) {
  UnionFind::Id Root = Partitions.unite(RootA, RootB);
  ++Stats.PartitionUnions;
  UnionFind::Id Other = (Root == RootA) ? RootB : RootA;
  if (Other < SetVec.size() && !SetVec[Other].empty()) {
    InconsistentSet Orphan = std::move(SetVec[Other]);
    SetVec[Other] = InconsistentSet();
    if (SetVec.size() <= Root)
      SetVec.resize(Root + 1);
    SetVec[Root].mergeFrom(*this, Orphan);
    DirtyRoots.push_back(Root);
  }
  return Root;
}

//===----------------------------------------------------------------------===//
// Journal bookkeeping
//===----------------------------------------------------------------------===//

void GraphPolicy::logUndo(std::function<void()> Undo) {
  assert(TxnActive && "logUndo() outside a batch");
  Journal.push_back(std::move(Undo));
  ++Stats.TxnUndoEntries;
}

//===----------------------------------------------------------------------===//
// Failure model: quarantine (see DESIGN.md)
//===----------------------------------------------------------------------===//

size_t GraphPolicy::findFault(NodeId Id) const {
  for (size_t I = 0; I < Quarantine.size(); ++I)
    if (Quarantine[I].first == Id)
      return I;
  return SIZE_MAX;
}

const FaultInfo *GraphPolicy::fault(const DepNode &N) const {
  size_t I = findFault(N.Id);
  return I == SIZE_MAX ? nullptr : &Quarantine[I].second;
}

std::vector<std::pair<DepNode *, const FaultInfo *>>
GraphPolicy::quarantined() const {
  std::vector<std::pair<DepNode *, const FaultInfo *>> Out;
  Out.reserve(Quarantine.size());
  for (const auto &Entry : Quarantine)
    Out.emplace_back(&node(Entry.first), &Entry.second);
  return Out;
}

void GraphPolicy::quarantine(DepNode &N, FaultInfo FI) {
  if (N.Quarantined)
    return; // First fault wins.
  assert(&node(N.Id) == &N && "quarantining a node of another graph");
  if (TxnActive) {
    // A fault inside a batch poisons the whole batch: commitBatch() will
    // roll back instead of committing, and the rollback lifts the
    // quarantine again (the pre-batch state had no such fault). The node
    // may die or be reset before then, so the closure resolves the
    // generation-checked id and lifts only a quarantine still in force.
    ++TxnNewFaults;
    if (!AbortFault)
      AbortFault = FI;
    logUndo([this, Id = N.Id]() {
      if (DepNode *Q = tryNode(Id); Q && Q->Quarantined)
        liftQuarantine(*Q);
    });
  }
  eraseFromPendingSets(N);
  N.Quarantined = true;
  N.Consistent = false;
  ++Stats.NodesQuarantined;
  // Dependents hold values computed from this node; queue them so they
  // discover the fault at their next recompute instead of silently
  // serving stale data (a recompute that calls a quarantined node throws
  // QuarantinedError and cascades).
  enqueueSuccessors(N);
  Quarantine.emplace_back(N.Id, std::move(FI));
}

bool GraphPolicy::resetQuarantined(DepNode &N) {
  if (!N.Quarantined)
    return false;
  liftQuarantine(N);
  ++Stats.QuarantineResets;
  return true;
}

void GraphPolicy::liftQuarantine(DepNode &N) {
  size_t I = findFault(N.Id);
  assert(I != SIZE_MAX && "quarantined node without a recorded fault");
  Quarantine[I] = std::move(Quarantine.back());
  Quarantine.pop_back();
  N.Quarantined = false;
  N.ReexecCount = 0;
  N.ReexecEpoch = 0;
  // Leave the node inconsistent; storage and eager nodes re-queue so the
  // next pump refreshes them, demand nodes recompute at their next call.
  if (N.isStorage() || N.Strategy == EvalStrategy::Eager)
    markInconsistent(N);
}

size_t GraphPolicy::resetAllQuarantined() {
  size_t Count = 0;
  while (!Quarantine.empty()) {
    resetQuarantined(node(Quarantine.back().first));
    ++Count;
  }
  return Count;
}

} // namespace alphonse
