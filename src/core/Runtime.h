//===- Runtime.h - Incremental runtime context ------------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime context for Alphonse programs: the dependency graph, the
/// statistics block, and the CallStack of currently executing incremental
/// procedure instances (Section 4.3). One Runtime corresponds to one
/// transformed program; everything it manages is single-threaded.
///
/// The Runtime must outlive every Cell / Maintained / Cached registered
/// with it (declare it first).
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_CORE_RUNTIME_H
#define ALPHONSE_CORE_RUNTIME_H

#include "graph/DepGraph.h"
#include "support/Diagnostics.h"
#include "support/Statistics.h"

#include <vector>

namespace alphonse {

/// Owns the dependency graph and the incremental call stack.
class Runtime {
public:
  explicit Runtime(DepGraph::Config Cfg = DepGraph::Config())
      : Graph(Stats, Cfg) {}

  DepGraph &graph() { return Graph; }
  Statistics &stats() { return Stats; }

  /// Resets the statistics counters (the graph itself is untouched).
  void resetStats() { Stats.reset(); }

  /// Rebases the pool.high_water gauge to the graph's current slab
  /// reservation. Benches scope the gauge to a churn phase with this:
  /// reset after warm-up, then assert it stayed flat (zero steady-state
  /// slab growth, DESIGN.md §14).
  void resetPoolHighWater() { Graph.resetHighWater(); }

  /// The dependency-graph node of the most recently called incremental
  /// procedure still executing, or nullptr outside incremental execution
  /// and inside UncheckedScope frames (paper: top(CallStack)). Frames
  /// hold generation-checked NodeIds, so a stale frame (its node died
  /// while on the stack) traps in debug builds instead of dereferencing a
  /// recycled slot.
  DepNode *currentProcedure() const {
    if (CallStack.empty() || !CallStack.back())
      return nullptr;
    return &Graph.node(CallStack.back());
  }

  /// True when storage accesses should record dependencies right now.
  bool inIncrementalCall() const { return currentProcedure() != nullptr; }

  /// Pushes an execution frame. \p Proc may be nullptr to open an
  /// unchecked region (Section 6.4) in which accesses record nothing.
  void pushCall(DepNode *Proc) {
    CallStack.push_back(Proc ? Proc->id() : NodeId());
  }

  /// Pops the innermost execution frame. Underflow means dependency
  /// recording has already been attributed to the wrong procedure, so it
  /// is a hard failure even in release builds (not just an assert).
  void popCall() {
    if (CallStack.empty())
      fatalError("incremental call stack underflow: popCall() without a "
                 "matching pushCall()");
    CallStack.pop_back();
  }

  /// Depth of the incremental call stack (frames, including unchecked).
  size_t callDepth() const { return CallStack.size(); }

  /// The node half of the access(v) transformation (Algorithm 3): records
  /// that the currently executing procedure depends on \p Source.
  void recordAccess(DepNode &Source) {
    if (DepNode *Top = currentProcedure())
      Graph.addDependency(*Top, Source);
  }

  /// Forces evaluation of pending changes that could affect \p N
  /// (Algorithm 5's "IF SetSize(Inconsistent) > 0 THEN Evaluate").
  void ensureEvaluatedFor(DepNode &N) {
    if (Graph.hasPendingFor(N))
      Graph.evaluateFor(N);
  }

  /// Runs the evaluator over every partition. The mutator calls this when
  /// computation cycles are available (the paper's eager-evaluation hook:
  /// "the evaluation routine should be called whenever cycles are
  /// available"). Governed by the default budget (setDefaultBudget);
  /// unlimited unless the embedding configured one.
  void pump() { Graph.evaluateAll(); }

  /// Budgeted pump (DESIGN.md Section 11): propagates under \p B's
  /// deadline / step budget / memory ceiling. On exhaustion the wave is
  /// cooperatively cancelled, residual work stays parked for a later
  /// pump, affected values are stamped stale (Cell::isStale), and the
  /// degraded outcome is returned.
  WaveOutcome pump(const WaveBudget &B) { return Graph.evaluateAll(B); }

  /// Unbudgeted run-to-quiescence pump, regardless of any default budget:
  /// drains every parked residue and clears all stale marks. Checkpoint
  /// capture and batch opening use this — both need a truly quiescent
  /// graph.
  WaveOutcome pumpUnbounded() { return Graph.evaluateAll(WaveBudget()); }

  /// Budget applied by every un-annotated pump (0 fields = unbounded).
  void setDefaultBudget(const WaveBudget &B) { Graph.setDefaultBudget(B); }

  /// True while the runtime serves degraded results (stale values or a
  /// parked residue from a cancelled wave).
  bool degraded() const { return Graph.governor().degraded(); }

  //===--------------------------------------------------------------------===//
  // Transactional mutation batches (DESIGN.md "Transactions and recovery")
  //===--------------------------------------------------------------------===//

  /// Opens a mutation batch at a quiescent state: pumps any pending work
  /// first (the batch's rollback point must itself be quiescent), then
  /// starts journaling. Batches do not nest, and must not be opened from
  /// inside an incremental call.
  void beginBatch() {
    assert(callDepth() == 0 && "beginBatch() inside an incremental call");
    // The pre-batch pump must run to quiescence whatever the default
    // budget: the rollback point has to be a quiescent state.
    Graph.evaluateAll(WaveBudget());
    Graph.beginBatch();
  }

  /// Propagates the batch to quiescence and commits it. Any fault during
  /// the batch or the propagation rolls the whole batch back; \returns
  /// false then (graph().abortFault() tells why).
  bool commitBatch() { return Graph.commitBatch(); }

  /// Reverts every mutation since beginBatch(), restoring the pre-batch
  /// quiescent state.
  void rollbackBatch() { Graph.rollbackBatch(); }

  /// True while a batch is open.
  bool inBatch() const { return Graph.inBatch(); }

  /// The graph's commit/rollback epoch (advances once per batch outcome).
  uint64_t epoch() const { return Graph.epoch(); }

  /// RAII form of pushCall/popCall: the frame is popped even when the
  /// procedure body throws, keeping dependency attribution balanced
  /// through exception unwinding.
  class CallScope {
  public:
    CallScope(Runtime &RT, DepNode *Proc) : RT(RT) { RT.pushCall(Proc); }
    ~CallScope() { RT.popCall(); }

    CallScope(const CallScope &) = delete;
    CallScope &operator=(const CallScope &) = delete;

  private:
    Runtime &RT;
  };

private:
  Statistics Stats;
  DepGraph Graph;
  /// The incremental call stack of Section 4.3.
  std::vector<NodeId> CallStack;
};

/// RAII mutation batch: opens a batch on construction and rolls it back on
/// destruction unless commit() succeeded (or rollback() already ran), so
/// an exception thrown mid-batch cannot leave the graph half-updated.
///
///   Transaction Txn(RT);
///   A.set(1);
///   B.set(2);
///   if (!Txn.commit())        // Fault during propagation: already rolled
///     report(*RT.graph().abortFault()); // back, state is pre-batch.
class Transaction {
public:
  explicit Transaction(Runtime &RT) : RT(RT) { RT.beginBatch(); }

  ~Transaction() {
    if (!Done)
      RT.rollbackBatch();
  }

  Transaction(const Transaction &) = delete;
  Transaction &operator=(const Transaction &) = delete;

  /// Commits the batch; on a fault the batch is rolled back and this
  /// returns false. Either way the transaction is finished.
  bool commit() {
    assert(!Done && "commit() on a finished transaction");
    Done = true;
    return RT.commitBatch();
  }

  /// Rolls the batch back explicitly (the destructor then does nothing).
  void rollback() {
    assert(!Done && "rollback() on a finished transaction");
    Done = true;
    RT.rollbackBatch();
  }

  /// True once commit() or rollback() ran.
  bool finished() const { return Done; }

private:
  Runtime &RT;
  bool Done = false;
};

/// RAII form of the (*UNCHECKED*) pragma (Section 6.4): inside the scope,
/// storage reads and procedure calls made by the enclosing incremental
/// procedure record no dependencies. Procedures *called* inside the scope
/// still track their own internal dependencies normally.
class UncheckedScope {
public:
  explicit UncheckedScope(Runtime &RT) : RT(RT) { RT.pushCall(nullptr); }
  ~UncheckedScope() { RT.popCall(); }

  UncheckedScope(const UncheckedScope &) = delete;
  UncheckedScope &operator=(const UncheckedScope &) = delete;

private:
  Runtime &RT;
};

} // namespace alphonse

#endif // ALPHONSE_CORE_RUNTIME_H
