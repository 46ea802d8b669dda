//===- TransactionStressTest.cpp - Randomized batch/rollback stress -------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized stress test for transactional batches: random interleavings
/// of tree mutations, mid-batch demands, injected faults, rollbacks and
/// commits on a HeightTree, checked against the hand-maintained
/// ManualHeightTree oracle after every batch. An eager observer sums every
/// height, so each commit re-runs it and each rollback leaves it for the
/// next pump to repair. Only committed batches are mirrored into the
/// oracle; rolled-back batches must leave the incremental tree
/// indistinguishable from never having run.
///
/// The seed is fixed: a failure reproduces deterministically.
///
//===----------------------------------------------------------------------===//

#include "core/Alphonse.h"
#include "support/FaultInjector.h"
#include "trees/HeightTree.h"
#include "trees/ManualHeightTree.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace alphonse {
namespace {

using trees::HeightTree;
using trees::ManualHeightTree;

/// One edit: parent index, which child slot, new child index (-1 = nil).
struct Edit {
  int Parent;
  bool LeftSlot;
  int Child;
};

/// The forest's shape as the test tracks it: per node, the child indices
/// (-1 = nil) and whether the node currently has a parent. Acyclicity is
/// guaranteed structurally — a node only ever links to higher-index
/// children — and each node has at most one parent.
struct Shape {
  std::vector<int> L, R;
  std::vector<char> HasParent;

  explicit Shape(int N) : L(N, -1), R(N, -1), HasParent(N, 0) {}

  int &slot(const Edit &E) { return E.LeftSlot ? L[E.Parent] : R[E.Parent]; }

  void apply(const Edit &E) {
    int &S = slot(E);
    if (S >= 0)
      HasParent[S] = 0;
    S = E.Child;
    if (E.Child >= 0)
      HasParent[E.Child] = 1;
  }
};

class Fixture {
public:
  static constexpr int NumNodes = 24;

  Fixture() : Tree(RT), Current(NumNodes) {
    for (int I = 0; I < NumNodes; ++I) {
      Inc.push_back(Tree.makeNode());
      Man.push_back(Manual.makeNode());
    }
    HeightSum(); // Wire the observer now, outside any batch.
  }

  /// Picks a random legal edit: parent P, slot, and a child with a higher
  /// index that is not already linked elsewhere — or a clear (-1).
  Edit randomEdit(std::mt19937 &Rng) {
    std::uniform_int_distribution<int> PickParent(0, NumNodes - 2);
    Edit E;
    E.Parent = PickParent(Rng);
    E.LeftSlot = (Rng() & 1) != 0;
    std::vector<int> Candidates{-1}; // Clearing the slot is always legal.
    for (int C = E.Parent + 1; C < NumNodes; ++C)
      if (!Current.HasParent[C])
        Candidates.push_back(C);
    int Occupant = E.LeftSlot ? Current.L[E.Parent] : Current.R[E.Parent];
    if (Occupant >= 0)
      Candidates.push_back(Occupant); // Re-linking in place: a no-op write.
    E.Child = Candidates[Rng() % Candidates.size()];
    return E;
  }

  void applyIncremental(const Edit &E) {
    HeightTree::Node *Child = E.Child < 0 ? Tree.nil() : Inc[E.Child];
    if (E.LeftSlot)
      Tree.setLeft(Inc[E.Parent], Child);
    else
      Tree.setRight(Inc[E.Parent], Child);
  }

  void applyManual(const Edit &E) {
    ManualHeightTree::Node *Child = E.Child < 0 ? nullptr : Man[E.Child];
    if (E.LeftSlot)
      Manual.setLeft(Man[E.Parent], Child);
    else
      Manual.setRight(Man[E.Parent], Child);
  }

  /// Full oracle comparison: every node's maintained height equals both
  /// the hand-maintained field and the exhaustive recursion; after a pump
  /// the eager observer holds the sum of the hand-maintained heights; and
  /// the graph audits clean.
  void checkAll() {
    int ManualSum = 0;
    for (int I = 0; I < NumNodes; ++I) {
      int Incremental = Tree.height(Inc[I]);
      ASSERT_EQ(Incremental, ManualHeightTree::height(Man[I]))
          << "node " << I << " disagrees with the manual oracle";
      ASSERT_EQ(Incremental,
                HeightTree::exhaustiveHeight(Inc[I], Tree.nil()))
          << "node " << I << " disagrees with the exhaustive recursion";
      ManualSum += ManualHeightTree::height(Man[I]);
    }
    RT.pump();
    ASSERT_NE(HeightSum.peekCached(), nullptr);
    ASSERT_EQ(*HeightSum.peekCached(), ManualSum)
        << "the eager observer disagrees with the manual oracle";
    std::vector<std::string> Audit = RT.graph().verify();
    ASSERT_TRUE(Audit.empty()) << Audit.front();
    ASSERT_EQ(RT.graph().numQuarantined(), 0u);
  }

  Runtime RT;
  HeightTree Tree;
  ManualHeightTree Manual;
  std::vector<HeightTree::Node *> Inc;
  std::vector<ManualHeightTree::Node *> Man;
  Shape Current;
  /// The eager observer: the sum of every node's maintained height.
  Maintained<int()> HeightSum{RT,
                              [this] {
                                int Sum = 0;
                                for (HeightTree::Node *N : Inc)
                                  Sum += Tree.height(N);
                                return Sum;
                              },
                              EvalStrategy::Eager, "sum"};
};

TEST(TransactionStressTest, RandomBatchesAgainstManualOracle) {
  Fixture F;
  std::mt19937 Rng(0xA1F0A15E); // Fixed seed: deterministic replay.

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);

  constexpr int NumBatches = 120;
  int Committed = 0, RolledBack = 0, Faulted = 0;

  for (int Batch = 0; Batch < NumBatches; ++Batch) {
    uint64_t Epoch0 = F.RT.epoch();
    Shape Before = F.Current; // Snapshot for rollback restoration.
    std::vector<Edit> Edits;

    // A quarter of the batches get a fault armed somewhere in the height
    // recomputes their demands will trigger.
    bool Armed = (Rng() % 4) == 0;
    if (Armed)
      Inj.armThrow("Tree.height", /*AtNthHit=*/1 + Rng() % 4);

    bool Doomed = false;
    {
      Transaction Txn(F.RT);
      int NumEdits = 1 + static_cast<int>(Rng() % 5);
      for (int I = 0; I < NumEdits; ++I) {
        Edit E = F.randomEdit(Rng);
        F.applyIncremental(E);
        F.Current.apply(E);
        Edits.push_back(E);
      }
      // Demand a few random heights inside the batch; with a fault armed
      // these may quarantine nodes, poisoning the batch.
      int NumDemands = static_cast<int>(Rng() % 4);
      for (int I = 0; I < NumDemands; ++I) {
        try {
          F.Tree.height(F.Inc[Rng() % Fixture::NumNodes]);
        } catch (const IncrementalFault &) {
          Doomed = true;
        } catch (const InjectedFault &) {
          Doomed = true;
        }
      }

      bool WantCommit = (Rng() % 3) != 0; // 2/3 commit, 1/3 rollback.
      if (!WantCommit) {
        Txn.rollback();
        Doomed = true; // Same restoration path as a fault.
        ++RolledBack;
      } else {
        bool Ok = Txn.commit();
        if (Doomed) {
          ASSERT_FALSE(Ok); // A poisoned batch must not commit.
        } else if (!Armed) {
          ASSERT_TRUE(Ok);
        }
        // An armed fault the demands missed may still fire in the
        // observer's re-run during the commit, aborting it.
        if (Ok) {
          ++Committed;
        } else {
          Doomed = true;
          ++Faulted;
        }
      }
    }
    if (Armed)
      Inj.disarm("Tree.height");

    ASSERT_EQ(F.RT.epoch(), Epoch0 + 1); // Every outcome advances the epoch.
    if (Doomed) {
      F.Current = Before; // The incremental tree rolled back; so do we.
    } else {
      for (const Edit &E : Edits)
        F.applyManual(E); // Mirror only committed batches into the oracle.
    }
    F.checkAll();
  }

  // The schedule must actually exercise all three outcomes.
  EXPECT_GT(Committed, 10);
  EXPECT_GT(RolledBack, 10);
  EXPECT_GT(Faulted, 0);
  EXPECT_EQ(F.RT.stats().TxnBegun,
            static_cast<uint64_t>(NumBatches));
  EXPECT_EQ(F.RT.stats().TxnCommitted, static_cast<uint64_t>(Committed));
}

} // namespace
} // namespace alphonse
