//===- InconsistentSet.cpp - Pending-change worklist ----------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Out-of-line pieces of the pending-set heap. The per-node operations
/// (push/pop/erase and the sifts) are inline in InconsistentSet.h because
/// they sit inside the propagation loop; only the bulk partition merge —
/// rare and O(n) by nature — lives here.
///
//===----------------------------------------------------------------------===//

#include "graph/InconsistentSet.h"

namespace alphonse {

void InconsistentSet::mergeFrom(GraphStore &G, InconsistentSet &Other) {
  if (Other.Heap.empty())
    return;
  if (Heap.empty()) {
    Heap.swap(Other.Heap);
    for (size_t I = 0; I < Heap.size(); ++I)
      place(G, I);
    return;
  }
  size_t OldSize = Heap.size();
  // Reserve up front: insert() growing mid-copy would reallocate once per
  // doubling while the entries are being appended.
  Heap.reserve(Heap.size() + Other.Heap.size());
  Heap.insert(Heap.end(), Other.Heap.begin(), Other.Heap.end());
  Other.Heap.clear();
  for (size_t I = OldSize; I < Heap.size(); ++I)
    place(G, I);
  // Floyd heapify.
  for (size_t I = Heap.size() / 2; I-- > 0;)
    siftDown(G, I);
}

} // namespace alphonse
