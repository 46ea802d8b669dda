//===- Checkpoint.h - Durable graph snapshots -------------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Capture and restore of the dependency graph's logical state (DESIGN.md
/// §10). A GraphSnapshot records everything the engine itself owns — node
/// metadata (kind, strategy, consistency, level, stamps, quarantine
/// faults), the edge lists, the partition structure, and the monotonic
/// counters — keyed by the capture-time NodeId bit patterns.
///
/// The graph does not own its nodes (the typed layers do: Cell,
/// Maintained, the interpreter's slots and instances), so restore is a
/// collaboration: the typed layer recreates its nodes against a fresh
/// Runtime and binds each one to the old id it was saved under
/// (GraphRestorer::bind); GraphRestorer::finish then re-applies the
/// engine-side state, relinks the edges, reunites the partitions, and
/// gates the result behind DepGraph::verify() — a restore that fails the
/// audit throws instead of handing back a half-built graph.
///
/// Both capture and restore require quiescence (no pending work, no open
/// batch, not mid-evaluation): a snapshot is always a consistent cut, so
/// deltas layered on top (CheckpointIO's log) can be replayed as plain
/// storage writes + propagation.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_GRAPH_CHECKPOINT_H
#define ALPHONSE_GRAPH_CHECKPOINT_H

#include "graph/DepGraph.h"
#include "support/CheckpointIO.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace alphonse {

/// Engine-side state of one node at capture time.
struct CkptNode {
  /// The node's NodeId bit pattern at capture. Restore never forges a
  /// handle from this — it is purely the key the typed layers use to say
  /// "this new node is that old node".
  uint32_t IdBits = 0;
  uint8_t Kind = 0;       ///< NodeKind
  uint8_t Strategy = 0;   ///< EvalStrategy
  uint8_t Consistent = 0; ///< consistent(u) bit
  uint8_t Serial = 0;     ///< node held a serial pin (requireSerialEval)
  /// DepNode::ReadMidExecution: verify()'s exemption for the inverted
  /// levels a re-entrant read leaves on this node's successor edges.
  uint8_t ReadMidExecution = 0;
  uint32_t Level = 0;
  /// Capture-time union-find root of the node's partition. An opaque
  /// label: restore unites nodes that share it.
  uint32_t PartitionTag = 0;
  uint64_t Version = 0;
  uint64_t ExecStamp = 0;
  std::string Name;
};

/// Predecessor list of one sink, front-to-back (most recent source
/// first, matching the intrusive list order).
struct CkptPredList {
  uint32_t SinkBits = 0;
  std::vector<uint32_t> SourceBits;
};

/// One quarantined node and its captured fault (FaultInfo::Nested does
/// not survive serialization; kind, node name, and message do).
struct CkptFault {
  uint32_t IdBits = 0;
  uint8_t Kind = 0; ///< FaultKind
  std::string NodeName;
  std::string Message;
};

/// The graph's complete logical state at one quiescent cut.
struct GraphSnapshot {
  uint64_t VersionCounter = 0;
  uint64_t StampCounter = 0;
  uint64_t Epoch = 1;
  std::vector<CkptNode> Nodes;
  std::vector<CkptPredList> Preds;
  std::vector<CkptFault> Faults;

  void encode(ByteWriter &W) const;
  /// Decodes and structurally validates (unique ids, resolvable edge and
  /// fault references, in-range enums). Throws CheckpointError.
  static GraphSnapshot decode(ByteReader &R);
};

/// Captures the engine-side state of a quiescent graph.
class GraphCheckpoint {
public:
  /// Throws CheckpointError(Busy) unless the graph is quiescent: nothing
  /// pending, no open batch, not mid-evaluation. (Callers normally pump
  /// first.)
  static GraphSnapshot capture(DepGraph &G);
};

/// Rebuilds a captured graph state into a fresh graph. Usage:
///
///   GraphRestorer R(std::move(Snapshot));
///   ... typed layer recreates each node and calls R.bind(oldIdBits, N)
///   R.finish(Graph);   // metadata + edges + partitions + verify()
class GraphRestorer {
public:
  explicit GraphRestorer(GraphSnapshot S);

  const GraphSnapshot &snapshot() const { return Snap; }

  /// The captured record for \p OldIdBits, or nullptr.
  const CkptNode *findNode(uint32_t OldIdBits) const;

  /// Declares that the freshly created node \p N is the captured node
  /// \p OldIdBits. Throws CheckpointError(Malformed) on an unknown id, a
  /// double bind, or a kind/strategy mismatch with the record.
  void bind(uint32_t OldIdBits, DepNode &N);

  /// Re-applies the engine-side state to \p G: per-node metadata,
  /// quarantine entries, edges, partition unions, serial tags, and the
  /// monotonic counters — then audits with DepGraph::verify(). Throws
  /// CheckpointError(Malformed) if any captured node is unbound or the
  /// graph holds foreign nodes/edges, and CheckpointError(VerifyFailed)
  /// if the audit finds anything. Call exactly once.
  void finish(DepGraph &G);

private:
  GraphSnapshot Snap;
  std::unordered_map<uint32_t, const CkptNode *> Index;
  std::unordered_map<uint32_t, DepNode *> Bound;
  bool Finished = false;
};

} // namespace alphonse

#endif // ALPHONSE_GRAPH_CHECKPOINT_H
