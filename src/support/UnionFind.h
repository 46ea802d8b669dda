//===- UnionFind.h - Disjoint-set forest ------------------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Disjoint-set forest with union by rank and path compression, used by the
/// dynamic dependency-graph partitioning refinement of Section 6.3 of the
/// paper ("we keep disjoint sets of unconnected nodes using the union/find
/// algorithm [AHU74]").
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_SUPPORT_UNIONFIND_H
#define ALPHONSE_SUPPORT_UNIONFIND_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace alphonse {

/// Growable disjoint-set forest over dense 32-bit element ids.
///
/// Elements are created with makeSet() and merged with unite(). find() uses
/// path halving, so a sequence of m operations over n elements costs
/// O(m * alpha(n)) — the inverse-Ackermann bound the paper cites in its
/// Section 9.2 time analysis.
class UnionFind {
public:
  using Id = uint32_t;

  /// Creates a fresh singleton set and returns its id.
  Id makeSet() {
    Id NewId = static_cast<Id>(Parent.size());
    Parent.push_back(NewId);
    Rank.push_back(0);
    ++NumSets;
    return NewId;
  }

  /// Returns the canonical representative of \p X's set.
  Id find(Id X) {
    assert(X < Parent.size() && "find() of unknown element");
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]]; // Path halving.
      X = Parent[X];
    }
    return X;
  }

  /// find() without path halving, for const callers (audits).
  Id root(Id X) const {
    assert(X < Parent.size() && "root() of unknown element");
    while (Parent[X] != X)
      X = Parent[X];
    return X;
  }

  /// Merges the sets containing \p A and \p B.
  ///
  /// \returns the representative of the merged set. If the two elements were
  /// already in the same set, this is simply that set's representative.
  Id unite(Id A, Id B) {
    Id RootA = find(A);
    Id RootB = find(B);
    if (RootA == RootB)
      return RootA;
    if (Rank[RootA] < Rank[RootB])
      std::swap(RootA, RootB);
    Parent[RootB] = RootA;
    if (Rank[RootA] == Rank[RootB])
      ++Rank[RootA];
    --NumSets;
    return RootA;
  }

  /// Returns true if \p A and \p B are currently in the same set.
  bool connected(Id A, Id B) { return find(A) == find(B); }

  /// Number of elements ever created.
  size_t size() const { return Parent.size(); }

  /// Number of distinct sets currently alive.
  size_t numSets() const { return NumSets; }

private:
  std::vector<Id> Parent;
  std::vector<uint8_t> Rank;
  size_t NumSets = 0;
};

} // namespace alphonse

#endif // ALPHONSE_SUPPORT_UNIONFIND_H
