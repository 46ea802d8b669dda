//===- Maintained.h - Maintained and cached procedures ----------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maintained<R(Args...)> is the C++ embedding of the paper's
/// (*MAINTAINED*) and (*CACHED*) pragmas: an incremental procedure whose
/// calls go through the call(p, a1..ak) transformation of Algorithm 5.
///
/// Each distinct argument vector gets one dependency-graph node, stored in
/// the per-procedure argument table of Section 4.2 and indexed by the
/// argument tuple. Function caching is thereby integrated with quiescence
/// propagation, which lifts the classical combinator restriction: the body
/// may read global state (other Cells, other incremental procedures), and
/// the referenced-argument set R(p) is recorded dynamically as edges.
///
/// Restrictions on the body (paper Section 3.5, proved by the programmer):
///  - DET: deterministic given its arguments and referenced storage;
///  - TOP: reads/writes only tracked (Cell) or argument data, no hidden
///    static state;
///  - OBS (eager bodies only): side effects unobservable under spurious
///    re-execution.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_CORE_MAINTAINED_H
#define ALPHONSE_CORE_MAINTAINED_H

#include "core/Runtime.h"
#include "support/FaultInjector.h"
#include "support/HashCombine.h"

#include <cassert>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace alphonse {

template <typename Signature> class Maintained;

/// An incremental procedure with result type R and parameters Args....
///
/// R and each argument type must be copyable, equality-comparable, and
/// (for arguments) hashable via std::hash.
template <typename R, typename... Args> class Maintained<R(Args...)> {
  static_assert(!std::is_void_v<R>,
                "incremental procedures must return a comparable value");

public:
  using Body = std::function<R(Args...)>;
  using Key = std::tuple<std::decay_t<Args>...>;

  /// Wraps \p Fn as an incremental procedure. \p Strategy selects the
  /// DEMAND / EAGER pragma argument of Section 3.3. \p Name labels the
  /// instance nodes in debug dumps ("proc" when empty).
  Maintained(Runtime &RT, Body Fn,
             EvalStrategy Strategy = EvalStrategy::Demand,
             std::string Name = "")
      : RT(&RT), Fn(std::move(Fn)), Strategy(Strategy),
        Name(Name.empty() ? "proc" : std::move(Name)) {}

  Maintained(const Maintained &) = delete;
  Maintained &operator=(const Maintained &) = delete;

  /// The call transformation (Algorithm 5): find-or-create the instance
  /// node, force pending evaluation, record the caller's dependence, then
  /// either answer from the cache or (re-)execute.
  R operator()(Args... A) {
    Key K(A...);
    InstanceNode *N = nullptr;
    bool Existing = false;
    {
      // The argument table and LRU list are shared across evaluator
      // threads; the graph's conditional lock (free when serial)
      // serializes lookups and insertions during waves.
      DepGraph::StateGuard Guard(RT->graph());
      auto It = Table.find(K);
      if (It == Table.end()) {
        auto Owned = std::make_unique<InstanceNode>(RT->graph(), *this, K,
                                                    Strategy);
        N = Owned.get();
        N->setName(Name);
        Table.emplace(std::move(K), std::move(Owned));
        touchLRU(*N);
        // A cache entry inserted inside a batch is dropped again on
        // rollback (journal entries touching the node were recorded later
        // and are undone first).
        if (RT->inBatch())
          RT->graph().logUndo(
              [this, DeadKey = N->K]() { eraseByKey(DeadKey); });
        enforceCapacity();
      } else {
        N = It->second.get();
        touchLRU(*N);
        Existing = true;
      }
    }
    // A wave worker must own N's partition before relying on its cached
    // state; contact with a sibling task's partition merges the two and
    // abandons this execution (RetryConflict).
    RT->graph().ensureWorkerAccess(*N, RT->currentProcedure());
    if (Existing) {
      // Algorithm 5 forces evaluation before reusing an existing node, so
      // that batched changes which affect this value are applied first.
      RT->ensureEvaluatedFor(*N);
    }
    if (RT->inIncrementalCall())
      RT->recordAccess(*N);
    if (N->isQuarantined()) {
      // The last recompute failed; surface the original fault to the
      // caller (an incremental caller is itself quarantined by its own
      // execute() frame, cascading the poison) instead of serving a stale
      // or missing cache entry.
      throw QuarantinedError(*RT->graph().fault(*N));
    }
    if (N->isExecuting()) {
      // Re-entrant call: the instance is already running further down the
      // stack (Algorithm 11's balance() does this after a rotation). Run
      // the body conventionally, attributing its reads to the in-flight
      // instance *without* retracting the edges recorded so far — a sound
      // over-approximation of R(p). The in-flight execution caches its own
      // final result when it completes. ReentrantScope bounds the nesting:
      // past Config::MaxReentrantDepth this is a dependency cycle (the
      // value demands itself) and its constructor throws CycleError.
      ReentrantScope Reentrant(RT->graph(), *N);
      Runtime::CallScope Call(*RT, N);
      return std::apply(Fn, N->K);
    }
    if (N->isConsistent()) {
      assert(N->Cached && "consistent instance with no cached value");
      ++RT->stats().CacheHits;
      return *N->Cached;
    }
    return execute(*N);
  }

  /// The dependency-graph node for these arguments, or nullptr if the
  /// procedure was never called with them (test/bench introspection).
  DepNode *instanceNode(Args... A) const {
    auto It = Table.find(Key(A...));
    return It == Table.end() ? nullptr : It->second.get();
  }

  /// Number of live (argument vector -> node) instances.
  size_t numInstances() const { return Table.size(); }

  /// True if a consistent cached value exists for these arguments (test
  /// introspection; records no dependency).
  bool hasCachedValue(Args... A) const {
    auto It = Table.find(Key(A...));
    return It != Table.end() && It->second->isConsistent();
  }

  /// True while the cached value for these arguments is stale: a budgeted
  /// pump was cancelled before re-establishing it, so calls serve the
  /// last-quiescent result (DESIGN.md Section 11). Records no dependency.
  bool isStale(Args... A) const {
    auto It = Table.find(Key(A...));
    return It != Table.end() && It->second->isStale();
  }

  /// Untracked read of the cached value for these arguments, forcing no
  /// evaluation (nullptr when the instance or its cache does not exist).
  /// The degraded-mode introspection path: callers inspecting stale
  /// (last-quiescent) values without paying for repair — operator()
  /// would evaluate pending work first.
  const R *peekCached(Args... A) const {
    auto It = Table.find(Key(A...));
    if (It == Table.end() || !It->second->Cached)
      return nullptr;
    return &*It->second->Cached;
  }

  /// Drops the instance for these arguments, if any. The instance must not
  /// be depended upon or executing. Use when an argument (say, a destroyed
  /// object) will never be passed again. Not transactional: do not call
  /// while a batch is open (undo closures may reference the instance).
  void erase(Args... A) { eraseByKey(Key(A...)); }

  /// Bounds the argument table (the pragma's cache-size argument); the
  /// least recently used instances that nothing depends on are evicted.
  /// 0 means unbounded.
  void setCapacity(size_t N) {
    Capacity = N;
    enforceCapacity();
  }

  /// Invokes \p F(key, cachedValue, node) on every live instance, in
  /// unspecified order. Checkpoint capture walks the argument table with
  /// this; records no dependencies and evaluates nothing.
  template <typename Fn> void forEachInstance(Fn F) const {
    for (const auto &KV : Table)
      F(KV.first, KV.second->Cached,
        static_cast<const DepNode &>(*KV.second));
  }

  /// Recreates the instance for \p K with \p Cached as its cached value,
  /// without executing the body — checkpoint restore rebuilds the
  /// argument table from the captured entries, then the GraphRestorer
  /// re-applies consistency flags and edges. The instance must not
  /// already exist. \returns the new node (for GraphRestorer::bind).
  DepNode &restoreInstance(Key K, std::optional<R> Cached) {
    assert(Table.find(K) == Table.end() &&
           "restoring an instance that already exists");
    auto Owned =
        std::make_unique<InstanceNode>(RT->graph(), *this, K, Strategy);
    InstanceNode *N = Owned.get();
    N->setName(Name);
    N->Cached = std::move(Cached);
    Table.emplace(std::move(K), std::move(Owned));
    touchLRU(*N);
    return *N;
  }

  EvalStrategy strategy() const { return Strategy; }
  Runtime &runtime() const { return *RT; }

private:
  struct InstanceNode final : DepNode {
    InstanceNode(DepGraph &G, Maintained &Parent, Key K, EvalStrategy S)
        : DepNode(G, NodeKind::Procedure, S), Parent(&Parent),
          K(std::move(K)) {}

    /// Evaluator hook for eager instances: re-run the body and report
    /// whether the cached value changed.
    bool reexecute() override {
      std::optional<R> Old = Cached;
      R New = Parent->execute(*this);
      return !Old || !(*Old == New);
    }

    Maintained *Parent;
    Key K;
    std::optional<R> Cached;
    typename std::list<InstanceNode *>::iterator LRUSlot;
    bool InLRU = false;
  };

  /// The execution half of Algorithm 5: retract the old referenced-argument
  /// set, push this instance on the call stack, run the body with the
  /// stored arguments, cache and return the result. The protocol frames are
  /// RAII so a throwing body unwinds with the graph and call stack
  /// coherent; the instance is quarantined with the captured fault and the
  /// exception continues to the caller (cascading through incremental
  /// callers, which quarantine in their own frames).
  R execute(InstanceNode &N) {
    DepGraph &G = RT->graph();
    // The graph journals the structural half of a re-execution itself
    // (edges, flags, stamps); the cached value lives out here in the
    // typed layer, so its restore is an Action entry.
    if (G.inBatch())
      G.logUndo([&N, Old = N.Cached]() { N.Cached = Old; });
    G.removePredEdges(N);
    ExecutionScope Exec(G, N);
    Runtime::CallScope Call(*RT, &N);
    try {
      // Inject *inside* the protocol so a forced throw exercises the same
      // unwind path as a real body failure. A Diverge action re-marks the
      // node inconsistent mid-run, as if it wrote storage it reads.
      auto Inject = faultInjectionPoint(N.name());
      R Ret = std::apply(Fn, N.K);
      if (Inject == FaultInjector::Action::Diverge)
        G.selfInvalidate(N);
      N.Cached = Ret;
      return Ret;
    } catch (const RetryConflict &) {
      // Wave conflict: a scheduling event, not a program fault. Leave the
      // instance inconsistent (ExecutionScope's endExecution re-queues
      // eager nodes) so the merged partition's owner re-runs it.
      G.selfInvalidate(N);
      throw;
    } catch (...) {
      G.quarantine(N, captureCurrentFault(N.name()));
      throw;
    }
  }

  /// Moves \p N to the hot end of the LRU list. A hit relinks the
  /// existing list node in place: no allocation on the call path.
  void touchLRU(InstanceNode &N) {
    if (N.InLRU) {
      LRU.splice(LRU.begin(), LRU, N.LRUSlot);
      return;
    }
    LRU.push_front(&N);
    N.LRUSlot = LRU.begin();
    N.InLRU = true;
  }

  void eraseByKey(const Key &K) {
    auto It = Table.find(K);
    if (It == Table.end())
      return;
    assert(!It->second->isExecuting() && "erasing an executing instance");
    if (It->second->InLRU)
      LRU.erase(It->second->LRUSlot);
    Table.erase(It);
  }

  void enforceCapacity() {
    if (Capacity == 0 || Table.size() <= Capacity)
      return;
    // Eviction is deferred while a batch is open: the journal holds
    // closures over instance nodes, which must stay alive until the batch
    // resolves. The next post-batch call (or setCapacity) trims the table.
    if (RT->inBatch())
      return;
    // Scan from the cold end; skip instances that are pinned (depended
    // upon or executing).
    auto It = LRU.end();
    while (Table.size() > Capacity && It != LRU.begin()) {
      --It;
      InstanceNode *N = *It;
      if (N == LRU.front())
        break; // Never evict the most recently used (the current call).
      if (N->isExecuting() || N->numSuccessors() != 0)
        continue;
      It = LRU.erase(It);
      Key Dead = N->K; // Copy: erasing the table entry destroys N.
      Table.erase(Dead);
    }
  }

  Runtime *RT;
  Body Fn;
  EvalStrategy Strategy;
  std::string Name;
  std::unordered_map<Key, std::unique_ptr<InstanceNode>,
                     TupleHash<std::decay_t<Args>...>>
      Table;
  std::list<InstanceNode *> LRU;
  size_t Capacity = 0;
};

/// The (*CACHED*) pragma: identical machinery (Section 4.2 integrates
/// function caching with quiescence propagation), kept as a distinct name
/// so client code mirrors the paper's vocabulary.
template <typename Signature> using Cached = Maintained<Signature>;

} // namespace alphonse

#endif // ALPHONSE_CORE_MAINTAINED_H
