//===- AvlChurn.cpp - avl_churn: AvlTree under steady key churn -----------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Closed loop, one client, serial Runtime. A trees::AvlTree holding half
// of a 2N key space serves Zipf-popular lookup/contains probes beside
// uniform inserts of absent keys and erases of present keys, which keep
// the key count steady. Every answer is checked against a std::set.
// Every distinct probe key keeps a maintained lookup instance, so the
// graph grows as the Zipf tail gets sampled; every 65536 ops the epoch
// ends (restore from the durable state, verify, rebuild from a cold
// start), which keeps every epoch alike.
//
// This is where per-instance bookkeeping dominates: tracked reads, edge
// link/unlink, markInconsistent and heap sifts, free-list reuse. It
// bypasses the parser, the interpreter, the scheduler, the service and
// the engine's checkpoint code (AvlTree has no checkpoint form, so its
// durable state is the key set written through the engine's crash-atomic
// CheckpointWriter, and a restore rebuilds the tree from it).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/CheckpointIO.h"
#include "trees/AvlTree.h"

#include <algorithm>
#include <set>

using namespace alphonse;
using alphonse::trees::AvlTree;

namespace perfbench {
namespace {

constexpr int NumKeys = 4096;
constexpr int KeySpace = 2 * NumKeys;
constexpr uint32_t KeysTag = sectionTag('K', 'E', 'Y', 'S');

/// Op mix (percent): Zipf probes through the maintained lookup and the
/// mutator-side contains; uniform churn through insert and erase.
enum class Kind : uint8_t { Lookup, Contains, Insert, Erase };

/// A set of ints with O(1) uniform sampling and removal.
class KeyPool {
public:
  void clear() {
    Keys.clear();
    Pos.assign(KeySpace, -1);
  }
  void add(int K) {
    Pos[K] = static_cast<int>(Keys.size());
    Keys.push_back(K);
  }
  void remove(int K) {
    int P = Pos[K];
    Keys[P] = Keys.back();
    Pos[Keys[P]] = P;
    Keys.pop_back();
    Pos[K] = -1;
  }
  int sample(Rng &R) const { return Keys[R.below(Keys.size())]; }
  size_t size() const { return Keys.size(); }

private:
  std::vector<int> Keys;
  std::vector<int> Pos;
};

class AvlChurn : public Workload {
public:
  explicit AvlChurn(const RunConfig &C)
      : Workload(C), Ops(C.Seed, 0xa71), Popular(KeySpace, 1.1),
        Path(C.WorkDir + "/avl_churn.ckpt") {
    // Probe popularity: Zipf rank -> key through a seeded permutation.
    Rng P(C.Seed, 0xa72);
    RankToKey.resize(KeySpace);
    for (int I = 0; I < KeySpace; ++I)
      RankToKey[I] = I;
    for (int I = KeySpace - 1; I > 0; --I)
      std::swap(RankToKey[I], RankToKey[P.below(I + 1)]);
  }

  void setup(Tracer *T) override {
    RT = std::make_unique<Runtime>();
    Tree = std::make_unique<AvlTree>(*RT);
    Oracle.clear();
    Present.clear();
    Absent.clear();
    // The initial key set: a seeded half of the key space, inserted in
    // seeded order; then the first demand rebalances the whole tree.
    Rng S(Cfg.Seed, 0xa73);
    std::vector<int> All(KeySpace);
    for (int I = 0; I < KeySpace; ++I)
      All[I] = I;
    for (int I = KeySpace - 1; I > 0; --I)
      std::swap(All[I], All[S.below(I + 1)]);
    for (int I = 0; I < KeySpace; ++I) {
      if (I < NumKeys) {
        Tree->insert(All[I]);
        Oracle.insert(All[I]);
        Present.add(All[I]);
      } else {
        Absent.add(All[I]);
      }
    }
    Span Sp(T, "AvlTree::contains", "trees", &RT->stats());
    Tree->contains(All[0]);
  }

  void teardown() override {
    Tree.reset();
    RT.reset();
  }

  void prepare() override {
    uint64_t Roll = Mix.next(Ops);
    if (Roll < 25) {
      Op = Kind::Lookup;
      Key = RankToKey[Popular.sample(Ops)];
    } else if (Roll < 70) {
      Op = Kind::Contains;
      Key = RankToKey[Popular.sample(Ops)];
    } else if (Roll < 85) {
      Op = Kind::Insert;
      Key = Absent.sample(Ops);
    } else {
      Op = Kind::Erase;
      Key = Present.sample(Ops);
    }
    Hash.add(static_cast<uint64_t>(Op) << 32 | static_cast<uint32_t>(Key));
  }

  void apply(Tracer *T) override {
    const Statistics *St = T ? &RT->stats() : nullptr;
    switch (Op) {
    case Kind::Lookup: {
      notePending();
      Span Sp(T, "AvlTree::lookup", "trees", St);
      Answer = Tree->lookup(Key);
      return;
    }
    case Kind::Contains: {
      notePending();
      Span Sp(T, "AvlTree::contains", "trees", St);
      Answer = Tree->contains(Key);
      return;
    }
    case Kind::Insert: {
      Span Sp(T, "AvlTree::insert", "trees", St);
      Tree->insert(Key);
      Erased = false;
      break;
    }
    case Kind::Erase: {
      Span Sp(T, "AvlTree::erase", "trees", St);
      Erased = Tree->erase(Key);
      break;
    }
    }
    // A mutation's consistent answer: the rebalanced tree's membership.
    notePending();
    Span Sp(T, "AvlTree::contains", "trees", St);
    Answer = Tree->contains(Key);
  }

  bool check() override {
    bool Expected = Oracle.count(Key) != 0;
    bool Ok = true;
    if (Op == Kind::Insert) {
      Expected = true;
      Oracle.insert(Key);
      Absent.remove(Key);
      Present.add(Key);
    } else if (Op == Kind::Erase) {
      Expected = false;
      Ok = Erased;
      Oracle.erase(Key);
      Present.remove(Key);
      Absent.add(Key);
    }
    if (corruptNow())
      Expected = !Expected;
    return Ok && Answer == Expected && RT->graph().numQuarantined() == 0;
  }

  size_t durableEvery() const override { return 256; }
  size_t epochOps() const override { return 65536; }

  void durable(Tracer *T) override {
    Span Sp(T, "CheckpointWriter::writeFile", "ckpt");
    ByteWriter W;
    W.u32(static_cast<uint32_t>(Oracle.size()));
    for (int K : Oracle)
      W.u32(static_cast<uint32_t>(K));
    CheckpointWriter CW;
    CW.addSection(KeysTag, W.take());
    DurableBytes += static_cast<double>(CW.writeFile(Path));
    ++Durables;
    DurableKeys.assign(Oracle.begin(), Oracle.end());
  }

  void restore(Tracer *T) override {
    Span Sp(T, "restore", "ckpt");
    CheckpointReader CR(Path);
    ByteReader BR = CR.section(KeysTag);
    std::vector<int> Sorted(BR.u32());
    for (int &K : Sorted)
      K = static_cast<int>(BR.u32());
    RestoredRT = std::make_unique<Runtime>();
    Restored = std::make_unique<AvlTree>(*RestoredRT);
    // Midpoints first, so the unbalanced BST inserts already build a
    // balanced tree (sorted inserts would build a list).
    std::vector<std::pair<size_t, size_t>> Ranges = {{0, Sorted.size()}};
    for (size_t I = 0; I < Ranges.size(); ++I) {
      auto [Lo, Hi] = Ranges[I];
      if (Lo == Hi)
        continue;
      size_t Mid = Lo + (Hi - Lo) / 2;
      Restored->insert(Sorted[Mid]);
      Ranges.push_back({Lo, Mid});
      Ranges.push_back({Mid + 1, Hi});
    }
    RestoredFirst = Sorted.empty() ? 0 : Sorted.front();
    RestoredHit = Restored->contains(RestoredFirst);
  }

  bool checkRestore() override {
    bool Ok = RestoredHit && Restored->isAvlBalanced() && Restored->isBst() &&
              Restored->reachableSize() == DurableKeys.size() &&
              RestoredRT->graph().verify().empty();
    for (size_t I = 0; Ok && I < DurableKeys.size(); I += 61)
      Ok = Restored->contains(DurableKeys[I]);
    Restored.reset();
    RestoredRT.reset();
    return Ok;
  }

  void finalCheck(std::vector<std::string> &Problems) override {
    if (!RT->graph().verify().empty())
      Problems.push_back("avl_churn: DepGraph::verify() failed");
    Tree->rebalance();
    if (!Tree->isAvlBalanced() || !Tree->isBst())
      Problems.push_back("avl_churn: tree is not a balanced BST");
    if (Tree->reachableSize() != Oracle.size())
      Problems.push_back("avl_churn: tree size disagrees with the oracle");
    if (RT->graph().numQuarantined())
      Problems.push_back("avl_churn: quarantined nodes");
  }

  void snap(Snap &S) override { S.add(RT->stats()); }
  void resetHighWater() override { RT->resetPoolHighWater(); }

  void resetExtras() override {
    PendingPeak = 0;
    DurableBytes = 0;
    Durables = 0;
  }
  void extras(std::map<std::string, double> &E) override {
    E["policy.pending_peak"] = static_cast<double>(PendingPeak);
    E["ckpt.delta_bytes"] = Metrics::ratio(DurableBytes, Durables);
  }

private:
  void notePending() {
    PendingPeak = std::max(PendingPeak, RT->graph().numPending());
  }

  Rng Ops;
  MixDeck Mix;
  Zipf Popular;
  std::string Path;
  std::vector<int> RankToKey;
  std::unique_ptr<Runtime> RT;
  std::unique_ptr<AvlTree> Tree;
  std::set<int> Oracle;
  KeyPool Present, Absent;

  Kind Op = Kind::Lookup;
  int Key = 0;
  bool Answer = false, Erased = false;

  size_t PendingPeak = 0;
  double DurableBytes = 0, Durables = 0;
  std::vector<int> DurableKeys;
  std::unique_ptr<Runtime> RestoredRT;
  std::unique_ptr<AvlTree> Restored;
  int RestoredFirst = 0;
  bool RestoredHit = false;
};

} // namespace

std::unique_ptr<Workload> makeAvlChurn(const RunConfig &C) {
  return std::make_unique<AvlChurn>(C);
}

} // namespace perfbench
