//===- Maintained.h - Maintained and cached procedures ----------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The call protocol: the per-procedure argument table of Section 4.2 with
/// the call(p, a1..ak) transformation of Algorithm 5 over it (ArgTable),
/// and its typed owner Maintained<R(Args...)>, the C++ embedding of the
/// paper's (*MAINTAINED*) and (*CACHED*) pragmas. ArgTable is the only
/// implementation of the protocol: the Alphonse-L interpreter keeps one
/// per incremental procedure, keyed by argument vectors of Values.
///
/// Each distinct argument key gets one dependency-graph node holding the
/// key and the cached result. Function caching is thereby integrated with
/// quiescence propagation, which lifts the classical combinator
/// restriction: the body may read global state (other Cells, other
/// incremental procedures), and the referenced-argument set R(p) is
/// recorded dynamically as edges.
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
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace alphonse {

/// The argument table of one incremental procedure.
///
/// \p Key is the argument key (hashed by \p Hash, compared with ==);
/// \p Result must be copyable and equality-comparable (re-execution
/// compares it for the quiescence cutoff). \p Body is the procedure
/// itself, called as `Result Body(const Key &)`; the table owns it.
template <typename Key, typename Result, typename Body,
          typename Hash = std::hash<Key>>
class ArgTable {
public:
  /// \p Name labels the instance nodes in debug dumps and is their
  /// fault-injection site.
  ArgTable(Runtime &RT, Body Fn, std::string Name)
      : RT(&RT), Fn(std::move(Fn)), Name(std::move(Name)) {}

  ArgTable(const ArgTable &) = delete;
  ArgTable &operator=(const ArgTable &) = delete;

  /// The call transformation (Algorithm 5): find-or-create the instance
  /// node, force pending evaluation, record the caller's dependence, then
  /// either answer from the cache or (re-)execute. \p Strategy is the
  /// instance's DEMAND / EAGER strategy (Section 3.3); it is fixed when
  /// the instance is created.
  Result call(Key K, EvalStrategy Strategy) {
    Instance *N;
    auto It = Table.find(K);
    if (It == Table.end()) {
      N = &insert(std::move(K), Strategy);
      // A cache entry inserted inside a batch is dropped again on rollback
      // (journal entries touching the node were recorded later and are
      // undone first).
      if (RT->inBatch())
        RT->graph().logUndo([this, DeadKey = *N->K]() { erase(DeadKey); });
    } else {
      N = &It->second;
      // Algorithm 5 forces evaluation before reusing an existing node, so
      // that batched changes which affect this value are applied first.
      RT->ensureEvaluatedFor(*N);
    }
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
      // execution, which keeps every edge they record — a sound
      // over-approximation of R(p). The in-flight execution caches its own
      // final result when it completes. ReentrantScope bounds the nesting:
      // past Config::MaxReentrantDepth this is a dependency cycle (the
      // value demands itself) and its constructor throws CycleError.
      ReentrantScope Reentrant(RT->graph(), *N);
      Runtime::CallScope Call(*RT, N);
      return Fn(*N->K);
    }
    if (N->isConsistent()) {
      assert(N->Cached && "consistent instance with no cached value");
      ++RT->stats().CacheHits;
      return *N->Cached;
    }
    return execute(*N);
  }

  /// The instance node for \p K, or nullptr if the procedure was never
  /// called with it. Records no dependency.
  DepNode *find(const Key &K) const {
    auto It = Table.find(K);
    return It == Table.end() ? nullptr : const_cast<Instance *>(&It->second);
  }

  /// The cached result for \p K, forcing no evaluation (nullptr when the
  /// instance or its cache does not exist).
  const Result *peekCached(const Key &K) const {
    auto It = Table.find(K);
    if (It == Table.end() || !It->second.Cached)
      return nullptr;
    return &*It->second.Cached;
  }

  /// Number of live instances.
  size_t size() const { return Table.size(); }

  /// Drops the instance for \p K, if any. The instance must not be
  /// depended upon or executing. Not transactional: do not call while a
  /// batch is open (undo closures may reference the instance).
  void erase(const Key &K) {
    auto It = Table.find(K);
    if (It == Table.end())
      return;
    assert(!It->second.isExecuting() && "erasing an executing instance");
    Table.erase(It);
  }

private:
  /// One argument key's graph node, held by value in the table. Map nodes
  /// never move, so the instance points at the table's copy of its key.
  struct Instance final : DepNode {
    Instance(DepGraph &G, ArgTable &Parent, EvalStrategy S)
        : DepNode(G, NodeKind::Procedure, S), Parent(&Parent) {}

    /// Evaluator hook for eager instances: re-run the body and report
    /// whether the cached result changed.
    bool reexecute() override {
      std::optional<Result> Old = Cached;
      Result New = Parent->execute(*this);
      return !Old || !(*Old == New);
    }

    ArgTable *Parent;
    const Key *K = nullptr;
    std::optional<Result> Cached;
  };

  Instance &insert(Key K, EvalStrategy Strategy) {
    auto [It, Fresh] =
        Table.try_emplace(std::move(K), RT->graph(), *this, Strategy);
    assert(Fresh && "inserting an instance that already exists");
    Instance &N = It->second;
    N.K = &It->first;
    N.setName(Name);
    return N;
  }

  /// The execution half of Algorithm 5: push this instance on the call
  /// stack, run the body with the stored key, cache and return the result.
  /// The graph records the referenced-argument set against the previous
  /// run's edges, keeping the ones read again (ExecutionScope). The
  /// protocol frames are RAII so a throwing body unwinds with the graph and
  /// call stack coherent; the instance is quarantined with the captured
  /// fault and the exception continues to the caller (cascading through
  /// incremental callers, which quarantine in their own frames).
  Result execute(Instance &N) {
    DepGraph &G = RT->graph();
    // The graph journals the structural half of a re-execution itself
    // (edges, flags, stamps); the cached result lives out here, so its
    // restore is an Action entry.
    if (G.inBatch())
      G.logUndo([&N, Old = N.Cached]() { N.Cached = Old; });
    ExecutionScope Exec(G, N);
    Runtime::CallScope Call(*RT, &N);
    try {
      // Inject *inside* the protocol so a forced throw exercises the same
      // unwind path as a real body failure. A Diverge action re-marks the
      // node inconsistent mid-run, as if it wrote storage it reads.
      auto Inject = faultInjectionPoint(N.name());
      Result Ret = Fn(*N.K);
      if (Inject == FaultInjector::Action::Diverge)
        G.selfInvalidate(N);
      N.Cached = Ret;
      return Ret;
    } catch (...) {
      G.quarantine(N, captureCurrentFault(N.name()));
      throw;
    }
  }

  Runtime *RT;
  Body Fn;
  std::string Name;
  std::unordered_map<Key, Instance, Hash> Table;
};

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
      : Table(RT, Apply{std::move(Fn)},
              Name.empty() ? "proc" : std::move(Name)),
        Strategy(Strategy) {}

  Maintained(const Maintained &) = delete;
  Maintained &operator=(const Maintained &) = delete;

  /// The call transformation (Algorithm 5), see ArgTable::call().
  R operator()(Args... A) { return Table.call(Key(A...), Strategy); }

  // Introspection (tests, benches, degraded-mode readers): none of these
  // records a dependency or evaluates pending work.

  /// The dependency-graph node for these arguments, or nullptr if the
  /// procedure was never called with them.
  DepNode *instanceNode(Args... A) const { return Table.find(Key(A...)); }
  /// Number of live (argument vector -> node) instances.
  size_t numInstances() const { return Table.size(); }
  /// True if a consistent cached value exists for these arguments.
  bool hasCachedValue(Args... A) const {
    DepNode *N = instanceNode(A...);
    return N && N->isConsistent();
  }
  /// True while the cached value for these arguments is stale: a budgeted
  /// pump was cancelled before re-establishing it, so calls serve the
  /// last-quiescent result (DESIGN.md Section 11).
  bool isStale(Args... A) const {
    DepNode *N = instanceNode(A...);
    return N && N->isStale();
  }
  /// The cached value for these arguments, stale or not (nullptr when the
  /// instance or its cache does not exist); see ArgTable::peekCached().
  const R *peekCached(Args... A) const {
    return Table.peekCached(Key(A...));
  }

  /// Drops the instance for these arguments (say, a destroyed object that
  /// will never be passed again); see ArgTable::erase() for the contract.
  void erase(Args... A) { Table.erase(Key(A...)); }

private:
  /// Calls the wrapped function with a stored argument tuple.
  struct Apply {
    Body Fn;
    R operator()(const Key &K) const { return std::apply(Fn, K); }
  };

  ArgTable<Key, R, Apply, TupleHash<std::decay_t<Args>...>> Table;
  EvalStrategy Strategy;
};

/// The (*CACHED*) pragma: identical machinery (Section 4.2 integrates
/// function caching with quiescence propagation), kept as a distinct name
/// so client code mirrors the paper's vocabulary.
template <typename Signature> using Cached = Maintained<Signature>;

} // namespace alphonse

#endif // ALPHONSE_CORE_MAINTAINED_H
