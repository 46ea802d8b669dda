//===- Checkpoint.cpp - Durable graph snapshots ---------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "graph/Checkpoint.h"

#include "support/FaultInfo.h"

#include <algorithm>
#include <unordered_set>

namespace alphonse {

namespace {

[[noreturn]] void malformed(const std::string &What) {
  throw CheckpointError(CkptError::Malformed, What);
}

/// The per-node flag byte of the wire format. Value 2 is unused: format
/// version 2 kept the serial pin there, and decode rejects it as an
/// unknown bit.
enum NodeFlag : uint8_t {
  FlagConsistent = 1,
  FlagReadMidExecution = 4,
  KnownFlags = FlagConsistent | FlagReadMidExecution,
};

} // namespace

//===----------------------------------------------------------------------===//
// GraphSnapshot wire format
//===----------------------------------------------------------------------===//

void GraphSnapshot::encode(ByteWriter &W) const {
  W.u64(VersionCounter);
  W.u64(StampCounter);
  W.u64(Epoch);
  W.u32(static_cast<uint32_t>(Nodes.size()));
  for (const CkptNode &N : Nodes) {
    W.u32(N.IdBits);
    W.u8(N.Kind);
    W.u8(N.Strategy);
    W.u8(static_cast<uint8_t>((N.Consistent ? FlagConsistent : 0) |
                              (N.ReadMidExecution ? FlagReadMidExecution : 0)));
    W.u32(N.Level);
    W.u32(N.PartitionTag);
    W.u64(N.Version);
    W.u64(N.ExecStamp);
    W.str(N.Name);
  }
  W.u32(static_cast<uint32_t>(Preds.size()));
  for (const CkptPredList &P : Preds) {
    W.u32(P.SinkBits);
    W.u32(static_cast<uint32_t>(P.SourceBits.size()));
    for (uint32_t S : P.SourceBits)
      W.u32(S);
  }
  W.u32(static_cast<uint32_t>(Faults.size()));
  for (const CkptFault &F : Faults) {
    W.u32(F.IdBits);
    W.u8(F.Kind);
    W.str(F.NodeName);
    W.str(F.Message);
  }
}

GraphSnapshot GraphSnapshot::decode(ByteReader &R) {
  GraphSnapshot S;
  S.VersionCounter = R.u64();
  S.StampCounter = R.u64();
  S.Epoch = R.u64();

  // Counts are not trusted: each element read is bounds-checked by the
  // ByteReader, so an absurd count dies with Truncated before it can
  // allocate anything of that size.
  uint32_t NumNodes = R.u32();
  std::unordered_set<uint32_t> Ids;
  for (uint32_t I = 0; I < NumNodes; ++I) {
    CkptNode N;
    N.IdBits = R.u32();
    N.Kind = R.u8();
    N.Strategy = R.u8();
    uint8_t Flags = R.u8();
    N.Consistent = (Flags & FlagConsistent) != 0;
    N.ReadMidExecution = (Flags & FlagReadMidExecution) != 0;
    N.Level = R.u32();
    N.PartitionTag = R.u32();
    N.Version = R.u64();
    N.ExecStamp = R.u64();
    N.Name = R.str();
    if (N.IdBits == 0)
      malformed("snapshot node with a null id");
    if (N.Kind > static_cast<uint8_t>(NodeKind::Procedure))
      malformed("snapshot node with an unknown kind");
    if (N.Strategy > static_cast<uint8_t>(EvalStrategy::Eager))
      malformed("snapshot node with an unknown strategy");
    if (Flags & ~KnownFlags)
      malformed("snapshot node with an unknown flag bit");
    if (!Ids.insert(N.IdBits).second)
      malformed("duplicate node id in snapshot");
    S.Nodes.push_back(std::move(N));
  }

  uint32_t NumPreds = R.u32();
  std::unordered_set<uint32_t> Sinks;
  for (uint32_t I = 0; I < NumPreds; ++I) {
    CkptPredList P;
    P.SinkBits = R.u32();
    if (!Ids.count(P.SinkBits))
      malformed("edge list for a node not in the snapshot");
    if (!Sinks.insert(P.SinkBits).second)
      malformed("duplicate edge list for one sink");
    uint32_t NumSources = R.u32();
    for (uint32_t J = 0; J < NumSources; ++J) {
      uint32_t Src = R.u32();
      if (!Ids.count(Src))
        malformed("edge source not in the snapshot");
      P.SourceBits.push_back(Src);
    }
    S.Preds.push_back(std::move(P));
  }

  uint32_t NumFaults = R.u32();
  std::unordered_set<uint32_t> Faulted;
  for (uint32_t I = 0; I < NumFaults; ++I) {
    CkptFault F;
    F.IdBits = R.u32();
    F.Kind = R.u8();
    F.NodeName = R.str();
    F.Message = R.str();
    if (!Ids.count(F.IdBits))
      malformed("quarantine entry for a node not in the snapshot");
    if (!Faulted.insert(F.IdBits).second)
      malformed("duplicate quarantine entry");
    if (F.Kind > static_cast<uint8_t>(FaultKind::Deadline))
      malformed("quarantine entry with an unknown fault kind");
    S.Faults.push_back(std::move(F));
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Capture
//===----------------------------------------------------------------------===//

GraphSnapshot GraphCheckpoint::capture(DepGraph &G) {
  if (G.isEvaluating())
    throw CheckpointError(CkptError::Busy,
                          "cannot checkpoint mid-evaluation");
  if (G.inBatch())
    throw CheckpointError(CkptError::Busy,
                          "cannot checkpoint inside an open batch");
  if (G.numPending() != 0)
    throw CheckpointError(CkptError::Busy,
                          "cannot checkpoint with pending work (" +
                              std::to_string(G.numPending()) +
                              " node(s); pump first)");

  GraphSnapshot S;
  S.VersionCounter = G.VersionCounter;
  S.StampCounter = G.StampCounter;
  S.Epoch = G.Epoch;

  for (uint32_t I = 0, E = G.NodeTab.span(); I < E; ++I) {
    DepNode *N = G.NodeTab.at(I);
    if (!N)
      continue;
    if (N->Executing || N->InQueue)
      throw CheckpointError(CkptError::Busy,
                            "node '" + N->name() +
                                "' is executing or queued at capture");
    CkptNode R;
    R.IdBits = N->Id.bits();
    R.Kind = static_cast<uint8_t>(N->Kind);
    R.Strategy = static_cast<uint8_t>(N->Strategy);
    R.Consistent = N->Consistent ? 1 : 0;
    R.ReadMidExecution = N->ReadMidExecution ? 1 : 0;
    R.Level = N->Level;
    R.Version = N->Version;
    R.ExecStamp = N->ExecStamp;
    R.Name = N->name();
    UnionFind::Id Root = G.Partitions.find(N->Partition);
    R.PartitionTag = Root;

    if (N->FirstPred) {
      CkptPredList P;
      P.SinkBits = R.IdBits;
      for (EdgeId EId = N->FirstPred; EId;) {
        const Edge &Ed = G.edge(EId);
        P.SourceBits.push_back(Ed.Source.bits());
        EId = Ed.NextPred;
      }
      S.Preds.push_back(std::move(P));
    }
    S.Nodes.push_back(std::move(R));
  }

  for (const auto &Q : G.Quarantine) {
    CkptFault F;
    F.IdBits = Q.first.bits();
    F.Kind = static_cast<uint8_t>(Q.second.Kind);
    F.NodeName = Q.second.NodeName;
    F.Message = Q.second.Message;
    S.Faults.push_back(std::move(F));
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Restore
//===----------------------------------------------------------------------===//

GraphRestorer::GraphRestorer(GraphSnapshot S) : Snap(std::move(S)) {
  for (const CkptNode &N : Snap.Nodes)
    Index.emplace(N.IdBits, &N);
}

const CkptNode *GraphRestorer::findNode(uint32_t OldIdBits) const {
  auto It = Index.find(OldIdBits);
  return It == Index.end() ? nullptr : It->second;
}

void GraphRestorer::bind(uint32_t OldIdBits, DepNode &N) {
  const CkptNode *R = findNode(OldIdBits);
  if (!R)
    malformed("typed layer bound an id that is not in the snapshot");
  if (!Bound.emplace(OldIdBits, &N).second)
    malformed("typed layer bound one snapshot id twice");
  if (static_cast<uint8_t>(N.Kind) != R->Kind ||
      static_cast<uint8_t>(N.Strategy) != R->Strategy)
    malformed("typed layer rebuilt node '" + R->Name +
              "' with a different kind or strategy");
}

void GraphRestorer::finish(DepGraph &G) {
  if (Finished)
    malformed("GraphRestorer::finish called twice");
  Finished = true;

  if (Bound.size() != Snap.Nodes.size())
    malformed("restore bound " + std::to_string(Bound.size()) + " of " +
              std::to_string(Snap.Nodes.size()) + " snapshot nodes");
  if (G.numLiveNodes() != Snap.Nodes.size())
    malformed("restore target graph holds nodes outside the snapshot");
  if (G.numLiveEdges() != 0)
    malformed("restore target graph already has edges");
  if (G.inBatch() || G.isEvaluating() || G.numPending() != 0)
    throw CheckpointError(CkptError::Busy,
                          "restore target graph is not quiescent");

  // Per-node metadata. This is state restoration, not event replay: the
  // captured cut was quiescent, so nothing here queues work or notifies
  // dependents.
  for (const CkptNode &R : Snap.Nodes) {
    DepNode &N = *Bound.at(R.IdBits);
    N.Consistent = R.Consistent != 0;
    N.ReadMidExecution = R.ReadMidExecution != 0;
    N.Level = R.Level;
    N.Version = R.Version;
    N.ExecStamp = R.ExecStamp;
  }

  // Quarantine membership (direct, not via quarantine(): that would
  // enqueue successors, and the captured cut had none pending).
  for (const CkptFault &F : Snap.Faults) {
    DepNode &N = *Bound.at(F.IdBits);
    N.Quarantined = true;
    N.Consistent = false;
    FaultInfo FI;
    FI.Kind = static_cast<FaultKind>(F.Kind);
    FI.NodeName = F.NodeName;
    FI.Message = F.Message;
    G.Quarantine.emplace_back(N.Id, std::move(FI));
  }

  // Edges: each snapshot adjacency row goes through the bulk-link API in
  // one call (it re-reverses internally so the push-front linkage
  // recovers the captured list order).
  {
    std::vector<DepNode *> Row;
    for (const CkptPredList &P : Snap.Preds) {
      DepNode &Sink = *Bound.at(P.SinkBits);
      Row.clear();
      Row.reserve(P.SourceBits.size());
      for (uint64_t Bits : P.SourceBits)
        Row.push_back(Bound.at(Bits));
      G.relinkPredecessors(Sink, Row);
    }
  }

  // Partitions: nodes that shared a capture-time root are reunited. This
  // covers edge-implied unions too (connected nodes always share a
  // capture root), plus history-only co-partitioning from edges that no
  // longer exist.
  std::unordered_map<uint32_t, UnionFind::Id> TagRep;
  for (const CkptNode &R : Snap.Nodes) {
    DepNode &N = *Bound.at(R.IdBits);
    UnionFind::Id Root = G.Partitions.find(N.Partition);
    auto [It, Fresh] = TagRep.try_emplace(R.PartitionTag, Root);
    if (!Fresh) {
      UnionFind::Id Rep = G.Partitions.find(It->second);
      if (Rep != Root)
        Rep = G.uniteRoots(Rep, Root);
      It->second = Rep;
    }
  }

  // Monotonic counters only ever move forward, even across a restore
  // into a runtime that already stamped something.
  G.VersionCounter = std::max(G.VersionCounter, Snap.VersionCounter);
  G.StampCounter = std::max(G.StampCounter, Snap.StampCounter);
  G.Epoch = std::max(G.Epoch, Snap.Epoch);

  G.Stats.CkptRestoredNodes += Snap.Nodes.size();

  // Restore rebuilt the tables wholesale; the growth-triggered gauge
  // hooks may never have fired (e.g. when restoring into freshly
  // reserved slabs), so re-publish the memory gauges explicitly.
  G.republishMemoryGauges();

  // The gate: no restored graph is handed back without passing the same
  // structural audit ALPHONSE_AUDIT runs after every outermost drain.
  std::vector<std::string> Problems = G.verify();
  if (!Problems.empty()) {
    std::string Msg = "restored graph failed verify(): " + Problems.front();
    if (Problems.size() > 1)
      Msg += " (+" + std::to_string(Problems.size() - 1) + " more)";
    throw CheckpointError(CkptError::VerifyFailed, Msg);
  }
}

} // namespace alphonse
