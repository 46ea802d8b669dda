//===- Cell.h - Tracked storage locations -----------------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cell<T> is a tracked storage location: the C++ embedding of the paper's
/// access(v) / modify(l, v) transformations (Algorithms 3 and 4). Where the
/// Alphonse translator rewrites every top-level read and write of a
/// Modula-3 program, a C++ program opts locations in by declaring them as
/// Cells (see the substitution table in DESIGN.md).
///
/// A Cell's dependency-graph node is created lazily at the first read
/// performed inside an incremental procedure, exactly as Algorithm 3
/// creates nodes on demand; until then reads and writes take the untracked
/// fast path (the effect Section 6.1's static optimization achieves).
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_CORE_CELL_H
#define ALPHONSE_CORE_CELL_H

#include "core/Runtime.h"
#include "support/FaultInjector.h"

#include <string>
#include <utility>

namespace alphonse {

/// A tracked storage location holding a value of type T.
///
/// T must be copyable and equality-comparable; the equality test implements
/// the value comparison of Algorithm 4 (variable-level quiescence).
template <typename T> class Cell {
public:
  /// Creates the cell with \p Initial contents. \p Name labels the node in
  /// debug dumps ("cell" when empty).
  explicit Cell(Runtime &RT, T Initial = T(), std::string Name = "")
      : RT(&RT), Live(std::move(Initial)),
        Name(Name.empty() ? "cell" : std::move(Name)) {}

  Cell(const Cell &) = delete;
  Cell &operator=(const Cell &) = delete;

  ~Cell() { delete Node; }

  /// The access(v) transformation: returns the live value and, when an
  /// incremental procedure is executing, records its dependence on this
  /// location (creating the dependency-graph node on first use).
  const T &get() const {
    if (RT->inIncrementalCall())
      RT->recordAccess(ensureNode());
    return Live;
  }

  /// The modify(l, v) transformation: writes the live value; if the
  /// location has a dependency-graph node and the new value differs from
  /// the snapshot dependents last saw, queues the node for propagation.
  void set(T V) {
    // Inside a batch every write is journaled — even untracked ones,
    // since the location may become tracked later in the same batch and
    // rollback must still restore the value written before it.
    if (RT->inBatch())
      RT->graph().logUndo([this, Old = Live]() {
        Live = Old;
        if (Node)
          Node->Snapshot = Old;
      });
    StorageNode *SN = Node;
    if (!SN) {
      // Never examined by an incremental procedure: plain store. This is
      // the fast path Section 6.1 wants for mutator-only data.
      Live = std::move(V);
      return;
    }
    Statistics &S = RT->stats();
    ++S.TrackedWrites;
    // Algorithm 4 begins with access(l): the writer (if any) depends on
    // the location it writes, so a later external write re-runs it.
    if (RT->inIncrementalCall())
      RT->recordAccess(*SN);
    bool Quiescent = (V == SN->Snapshot);
    Live = std::move(V);
    if (Quiescent && RT->graph().config().VariableCutoff) {
      ++S.QuiescentWrites;
      return;
    }
    RT->graph().markInconsistent(*SN);
  }

  Cell &operator=(T V) {
    set(std::move(V));
    return *this;
  }

  /// Untracked read: never records a dependency. For the mutator's own
  /// inspection, tests, and debugging.
  const T &peek() const { return Live; }

  /// True once the location is tracked (some incremental procedure read it).
  bool isTracked() const { return Node != nullptr; }

  /// The location's dependency-graph node, or nullptr while untracked.
  DepNode *node() const { return Node; }

  /// True while this location's tracked snapshot is *stale*: a budgeted
  /// pump was cancelled before propagating a change that (transitively)
  /// reaches it, so dependent values computed from it reflect the last
  /// quiescent state. Cleared once a later pump repairs the cone.
  /// Untracked cells are never stale (peek() always reads live storage).
  bool isStale() const { return Node && Node->isStale(); }

  /// Creates the location's node now (outside any incremental call) and
  /// returns it. Checkpoint restore uses this to rebuild a cell that was
  /// tracked at capture without replaying the read that tracked it.
  DepNode &ensureTracked() { return ensureNode(); }

  Runtime &runtime() const { return *RT; }

private:
  struct StorageNode final : DepNode {
    StorageNode(DepGraph &G, const Cell &Owner)
        : DepNode(G, NodeKind::Storage), Owner(&Owner),
          Snapshot(Owner.Live) {}

    /// Reconciles the snapshot with live storage; the return value drives
    /// the quiescence cutoff in the evaluator. A fault injected here (test
    /// harness) quarantines the storage node like any other refresh failure.
    bool refreshStorage() override {
      faultInjectionPoint(name());
      bool Changed = !(Owner->Live == Snapshot);
      Snapshot = Owner->Live;
      return Changed;
    }

    const Cell *Owner;
    /// The value dependents observed at the last completed propagation.
    T Snapshot;
  };

  /// The location's node, created at the first tracked access.
  StorageNode &ensureNode() const {
    if (Node)
      return *Node;
    Node = new StorageNode(RT->graph(), *this);
    Node->setName(Name);
    // A node created inside a batch is destroyed again on rollback (its
    // edges and journal references are undone first — they were recorded
    // later).
    if (RT->inBatch())
      RT->graph().logUndo([this]() {
        delete Node;
        Node = nullptr;
      });
    return *Node;
  }

  Runtime *RT;
  T Live;
  mutable StorageNode *Node = nullptr;
  std::string Name;
};

} // namespace alphonse

#endif // ALPHONSE_CORE_CELL_H
