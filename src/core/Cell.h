//===- Cell.h - Tracked storage locations -----------------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The storage protocol: StorageNode<T>, one tracked storage location with
/// the paper's access(v) and modify(l, v) operations (Algorithms 3 and 4),
/// and its typed owner Cell<T>, which binds one to a runtime and a name.
/// StorageNode is the only implementation of the protocol: the Alphonse-L
/// interpreter keeps its globals and object fields in StorageNode<Value>s.
/// Where the Alphonse translator rewrites every top-level read and write
/// of a Modula-3 program, a C++ program opts locations in by declaring
/// them as Cells (see the substitution table in DESIGN.md).
///
/// A location's dependency-graph node is created lazily at the first read
/// performed inside an incremental procedure, exactly as Algorithm 3
/// creates nodes on demand; until then reads and writes take the untracked
/// fast path (the effect Section 6.1's static optimization achieves).
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_CORE_CELL_H
#define ALPHONSE_CORE_CELL_H

#include "core/Runtime.h"
#include "support/FaultInjector.h"

#include <cassert>
#include <string>
#include <utility>

namespace alphonse {

/// A tracked storage location holding a value of type T.
///
/// T must be copyable and equality-comparable; the equality test implements
/// the value comparison of Algorithm 4 (variable-level quiescence). The
/// location is neither copyable nor movable: its graph vertex points back
/// at it.
template <typename T> class StorageNode {
public:
  explicit StorageNode(T Initial = T()) : Live(std::move(Initial)) {}
  ~StorageNode() { delete Node; }

  StorageNode(const StorageNode &) = delete;
  StorageNode &operator=(const StorageNode &) = delete;

  /// The access(v) transformation: returns the live value and, when an
  /// incremental procedure of \p RT is executing, records its dependence on
  /// this location, creating the graph vertex on first use. \p Label is
  /// called only then: it returns the vertex's name, a std::string that
  /// outlives the vertex.
  template <typename LabelFn>
  const T &read(Runtime &RT, LabelFn Label) const {
    if (RT.inIncrementalCall())
      RT.recordAccess(Node ? *Node : ensureTracked(RT, Label()));
    return Live;
  }

  /// The modify(l, v) transformation: writes the live value; if the
  /// location has a graph vertex and the new value differs from the
  /// snapshot dependents last saw, queues the vertex for propagation.
  void write(Runtime &RT, T V) {
    // Inside a batch every write is journaled — even untracked ones,
    // since the location may become tracked later in the same batch and
    // rollback must still restore the value written before it.
    if (RT.inBatch())
      RT.graph().logUndo([this, Old = Live]() {
        Live = Old;
        if (Node)
          Node->Snapshot = Old;
      });
    Vertex *SN = Node;
    if (!SN) {
      // Never examined by an incremental procedure: plain store. This is
      // the fast path Section 6.1 wants for mutator-only data.
      Live = std::move(V);
      return;
    }
    Statistics &S = RT.stats();
    ++S.TrackedWrites;
    // Algorithm 4 begins with access(l): the writer (if any) depends on
    // the location it writes, so a later external write re-runs it.
    RT.recordAccess(*SN);
    bool Quiescent = (V == SN->Snapshot);
    Live = std::move(V);
    if (Quiescent && RT.graph().config().VariableCutoff) {
      ++S.QuiescentWrites;
      return;
    }
    RT.graph().markInconsistent(*SN);
  }

  /// Untracked read: never records a dependency.
  const T &peek() const { return Live; }

  /// Sets the value of an untracked location outside the modify protocol:
  /// the first value of a fresh location (or the zero value checkpoint
  /// restore starts a global from), which nothing has read, so nothing is
  /// journaled or invalidated.
  void initialize(T V) {
    assert(!Node && "initializing a tracked location");
    Live = std::move(V);
  }

  /// The location's graph vertex, or nullptr while untracked.
  DepNode *node() const { return Node; }

  /// True while the tracked snapshot is stale (see DepNode::isStale()).
  /// An untracked location is never stale.
  bool isStale() const { return Node && Node->isStale(); }

private:
  /// The location's graph vertex, created now if it does not exist yet
  /// (its snapshot is the live value).
  DepNode &ensureTracked(Runtime &RT, const std::string &Name) const {
    if (Node)
      return *Node;
    Node = new Vertex(RT.graph(), *this);
    Node->setName(Name);
    // A vertex created inside a batch is destroyed again on rollback (its
    // edges and journal references are undone first — they were recorded
    // later).
    if (RT.inBatch())
      RT.graph().logUndo([this]() {
        delete Node;
        Node = nullptr;
      });
    return *Node;
  }

  struct Vertex final : DepNode {
    Vertex(DepGraph &G, const StorageNode &Owner)
        : DepNode(G, NodeKind::Storage), Owner(&Owner),
          Snapshot(Owner.Live) {}

    /// Reconciles the snapshot with live storage; the return value drives
    /// the quiescence cutoff in the evaluator. A fault injected here (test
    /// harness) quarantines the vertex like any other refresh failure.
    bool refreshStorage() override {
      faultInjectionPoint(name());
      bool Changed = !(Owner->Live == Snapshot);
      Snapshot = Owner->Live;
      return Changed;
    }

    const StorageNode *Owner;
    /// The value dependents observed at the last completed propagation.
    T Snapshot;
  };

  T Live;
  mutable Vertex *Node = nullptr;
};

/// A StorageNode bound to its runtime and name: the typed API.
template <typename T> class Cell {
public:
  /// Creates the cell with \p Initial contents. \p Name labels the node in
  /// debug dumps ("cell" when empty).
  explicit Cell(Runtime &RT, T Initial = T(), std::string Name = "")
      : RT(&RT), Name(Name.empty() ? "cell" : std::move(Name)),
        Storage(std::move(Initial)) {}

  Cell(const Cell &) = delete;
  Cell &operator=(const Cell &) = delete;

  /// The access(v) transformation (Algorithm 3), see StorageNode::read().
  const T &get() const {
    return Storage.read(*RT, [this]() -> const std::string & { return Name; });
  }
  /// The modify(l, v) transformation (Algorithm 4), see
  /// StorageNode::write().
  void set(T V) { Storage.write(*RT, std::move(V)); }
  Cell &operator=(T V) {
    set(std::move(V));
    return *this;
  }

  /// Untracked read: never records a dependency. For the mutator's own
  /// inspection, tests, and debugging.
  const T &peek() const { return Storage.peek(); }
  /// True once the location is tracked (some incremental procedure read it).
  bool isTracked() const { return Storage.node() != nullptr; }
  /// The location's dependency-graph node, or nullptr while untracked.
  DepNode *node() const { return Storage.node(); }
  /// True while this location's tracked snapshot is *stale*: a budgeted
  /// pump was cancelled before propagating a change that (transitively)
  /// reaches it, so dependent values computed from it reflect the last
  /// quiescent state. Untracked cells are never stale.
  bool isStale() const { return Storage.isStale(); }

private:
  Runtime *RT;
  /// Declared before Storage: the node points at it until the node dies.
  std::string Name;
  StorageNode<T> Storage;
};

} // namespace alphonse

#endif // ALPHONSE_CORE_CELL_H
