//===- UndoLog.h - Transactional undo journal -------------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The undo journal behind DepGraph's transactional mutation batches
/// (DESIGN.md "Transactions and recovery"). Between beginBatch() and
/// commitBatch()/rollbackBatch() every mutation appends one entry; a
/// rollback replays the journal in reverse, restoring the exact pre-batch
/// quiescent state.
///
/// Two entry families coexist:
///
///  - Structural entries (EdgeAdded, PredsRemoved, ExecSnapshot,
///    VersionStamp, Quarantined, QuarantineCleared) are interpreted by
///    DepGraph itself, which owns the touched state. They reference nodes
///    by generation-checked NodeId, so a replay that would touch a
///    recycled slot traps on the generation mismatch instead of silently
///    mutating the slot's new occupant.
///  - Action entries carry an opaque closure from a typed layer (Cell's
///    old-value snapshot, Maintained's cache-entry erase, an interpreter
///    slot restore). The graph cannot name those types, so the layer
///    captures the restore itself via DepGraph::logUndo().
///
/// Ordering invariant the reverse replay relies on: any entry referencing
/// a node appears *after* the entry that would destroy that node on
/// rollback (nodes are journaled at creation, referenced afterwards), so
/// references are undone before their target dies. A node destroyed
/// mid-batch by the mutator itself is handled by scrub(), which drops the
/// structural entries that point at it.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_GRAPH_UNDOLOG_H
#define ALPHONSE_GRAPH_UNDOLOG_H

#include "graph/Handle.h"
#include "support/FaultInfo.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace alphonse {

/// One journaled mutation; replayed in reverse order by rollbackBatch().
struct UndoEntry {
  enum class Kind : uint8_t {
    /// Run the typed-layer closure in Undo.
    Action,
    /// The edge with handle Edge (Source -> Sink) was created; rollback
    /// unlinks that edge.
    EdgeAdded,
    /// A prefix of Sink's predecessor list was detached: the edges a
    /// re-execution did not read again, or every edge (removePredEdges);
    /// rollback relinks them at the front in their old order.
    PredsRemoved,
    /// Sink entered beginExecution(); rollback restores its Consistent /
    /// Level / ExecStamp / Version to the recorded pre-execution values.
    ExecSnapshot,
    /// Sink's value version was advanced (storage change); rollback
    /// restores OldVersion.
    VersionStamp,
    /// Sink was quarantined during the batch; rollback lifts the
    /// quarantine and restores WasConsistent.
    Quarantined,
    /// Sink's quarantine was reset during the batch; rollback re-imposes
    /// it with the preserved fault in Saved.
    QuarantineCleared,
  };

  Kind K = Kind::Action;
  NodeId Sink;
  NodeId Source;                     ///< EdgeAdded only.
  EdgeId Edge;                       ///< EdgeAdded only.
  /// PredsRemoved only: each detached edge's source and old handle, in
  /// list order.
  std::vector<std::pair<NodeId, EdgeId>> Preds;
  std::function<void()> Undo;        ///< Action only.
  FaultInfo Saved;                   ///< QuarantineCleared only.
  bool WasConsistent = false;        ///< ExecSnapshot, Quarantined.
  uint32_t OldLevel = 0;             ///< ExecSnapshot.
  uint64_t OldStamp = 0;             ///< ExecSnapshot.
  uint64_t OldVersion = 0;           ///< ExecSnapshot, VersionStamp.
};

/// Append-only journal of one batch, replayed backwards on rollback.
class UndoLog {
public:
  bool empty() const { return Entries.empty(); }
  size_t size() const { return Entries.size(); }

  void push(UndoEntry E) { Entries.push_back(std::move(E)); }

  void clear() { Entries.clear(); }

  /// Drops structural entries referencing node \p N. Called when a node is
  /// destroyed mid-batch by the mutator (not by rollback): the journal
  /// must never resolve a dead handle during replay. Action entries are
  /// kept — their closures are the typed layer's responsibility, and the
  /// layer destroys nodes only through owners whose own undo entry (the
  /// owner reset) precedes every capture of the node. The full 32-bit
  /// handle is compared, so a recycled slot index never aliases.
  void scrub(NodeId N) {
    Entries.erase(
        std::remove_if(Entries.begin(), Entries.end(),
                       [&](UndoEntry &E) {
                         if (E.K == UndoEntry::Kind::Action)
                           return false;
                         if (E.K == UndoEntry::Kind::PredsRemoved) {
                           if (E.Sink == N)
                             return true;
                           E.Preds.erase(
                               std::remove_if(E.Preds.begin(), E.Preds.end(),
                                              [&](const auto &P) {
                                                return P.first == N;
                                              }),
                               E.Preds.end());
                           return false;
                         }
                         return E.Sink == N || E.Source == N;
                       }),
        Entries.end());
  }

  /// Applies \p Apply to every entry, newest first.
  template <typename Fn> void replayReverse(Fn Apply) {
    for (size_t I = Entries.size(); I-- > 0;)
      Apply(Entries[I]);
  }

private:
  std::vector<UndoEntry> Entries;
};

} // namespace alphonse

#endif // ALPHONSE_GRAPH_UNDOLOG_H
