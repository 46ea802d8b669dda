//===- InconsistentSet.h - Pending-change worklist --------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's "global inconsistent set" (Section 4.4), one instance per
/// dependency-graph partition (Section 6.3). Implemented as a binary
/// min-heap on node level, approximating the topological processing order
/// that minimizes recomputation (Section 2; the paper defers the exact
/// ordering algorithm to [Hud86, Hoo86, Hoo87, AHR+90] — see DESIGN.md for
/// the substitution note). Each queued node remembers its heap position,
/// so removal of a dying node is O(log n).
///
/// Heap entries are {NodeId, level} — 8 bytes, down from the 16-byte
/// pointer entries of the pre-handle engine — resolved through the
/// GraphStore node table, so a drain touches half the heap cache lines.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_GRAPH_INCONSISTENTSET_H
#define ALPHONSE_GRAPH_INCONSISTENTSET_H

#include "graph/GraphStore.h"
#include "graph/Handle.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace alphonse {

/// Min-heap of inconsistent nodes ordered by approximate topological level.
///
/// Membership is tracked with the node's InQueue flag, so a node appears at
/// most once across all sets. Levels are sampled at push time; later level
/// changes do not re-sort the heap (ordering is a heuristic only). The set
/// stores handles, not pointers, so every operation takes the GraphStore
/// that resolves them.
/// Push/pop/erase are inline: they sit inside the propagation loop (one
/// push per queued dependent, one pop per evaluator step) and must fold
/// into markInconsistent and the drain loop across the layer split.
class InconsistentSet {
public:
  bool empty() const { return Heap.empty(); }
  size_t size() const { return Heap.size(); }

  /// Adds \p N unless it is already queued. \returns true if added.
  bool push(GraphStore &G, DepNode &N) {
    assert(N.Id && "pushing an unregistered node");
    if (N.InQueue)
      return false;
    N.InQueue = true;
    Heap.push_back({N.Id, N.Level});
    place(G, Heap.size() - 1);
    siftUp(G, Heap.size() - 1);
    return true;
  }

  /// Removes and returns the queued node with the smallest level.
  DepNode &pop(GraphStore &G) {
    assert(!Heap.empty() && "pop() from empty inconsistent set");
    DepNode &N = G.node(Heap.front().Id);
    assert(N.InQueue && "queued node lost its InQueue flag");
    removeAt(G, 0);
    N.InQueue = false;
    return N;
  }

  /// Removes \p N if present (used when a queued node is destroyed or
  /// quarantined). A queued \p N must be queued in this set.
  void erase(GraphStore &G, DepNode &N) {
    if (!N.InQueue)
      return;
    size_t Index = N.QueuePos;
    assert(Index < Heap.size() && Heap[Index].Id == N.Id &&
           "queued node is not in this set");
    removeAt(G, Index);
    N.InQueue = false;
  }

  /// Moves every entry of \p Other into this set, leaving \p Other empty.
  void mergeFrom(GraphStore &G, InconsistentSet &Other);

  /// Invokes \p F on every queued node (heap order; for audits).
  template <typename Fn> void forEach(const GraphStore &G, Fn F) const {
    for (const Entry &E : Heap)
      F(G.node(E.Id));
  }

private:
  struct Entry {
    NodeId Id;
    uint32_t Level;
  };
  static_assert(sizeof(Entry) == 8, "pending entries must stay 8 bytes");

  void place(GraphStore &G, size_t Index) {
    G.node(Heap[Index].Id).QueuePos = static_cast<uint32_t>(Index);
  }

  // Both sifts move a hole instead of swapping: each displaced entry is
  // copied and re-placed exactly once, and the moving entry is written
  // (and its node's QueuePos resolved through the table) only at its
  // final position — half the handle resolutions of a swap-based sift.

  void siftUp(GraphStore &G, size_t Index) {
    Entry Moving = Heap[Index];
    size_t Hole = Index;
    while (Hole > 0) {
      size_t Parent = (Hole - 1) / 2;
      if (Heap[Parent].Level <= Moving.Level)
        break;
      Heap[Hole] = Heap[Parent];
      place(G, Hole);
      Hole = Parent;
    }
    if (Hole != Index) {
      Heap[Hole] = Moving;
      place(G, Hole);
    }
  }

  void siftDown(GraphStore &G, size_t Index) {
    size_t Size = Heap.size();
    Entry Moving = Heap[Index];
    size_t Hole = Index;
    while (true) {
      size_t Left = 2 * Hole + 1;
      if (Left >= Size)
        break;
      size_t Smallest = Left;
      size_t Right = Left + 1;
      if (Right < Size && Heap[Right].Level < Heap[Left].Level)
        Smallest = Right;
      if (Moving.Level <= Heap[Smallest].Level)
        break;
      Heap[Hole] = Heap[Smallest];
      place(G, Hole);
      Hole = Smallest;
    }
    if (Hole != Index) {
      Heap[Hole] = Moving;
      place(G, Hole);
    }
  }

  void removeAt(GraphStore &G, size_t Index) {
    size_t Last = Heap.size() - 1;
    if (Index != Last) {
      Heap[Index] = Heap[Last];
      place(G, Index);
    }
    Heap.pop_back();
    if (Index < Heap.size()) {
      siftDown(G, Index);
      siftUp(G, Index);
    }
  }

  std::vector<Entry> Heap;
};

} // namespace alphonse

#endif // ALPHONSE_GRAPH_INCONSISTENTSET_H
