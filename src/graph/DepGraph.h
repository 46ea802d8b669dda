//===- DepGraph.h - Dynamic dependency graph --------------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The propagation layer and public façade of the dependency-graph engine
/// (Sections 4 and 6.3 of the paper; DESIGN.md "Engine layering and
/// handle-based storage"). DepGraph adds the evaluation routine of
/// Section 4.5, the execution protocol, the transaction drivers, and the
/// invariant audit on top of the policy layer (GraphPolicy: partitions, pending sets, quarantine,
/// journal) which itself sits on the storage layer (GraphStore: dense
/// node/edge slabs). Nodes are owned by the typed layer (Cell /
/// Maintained / interpreter objects) and register themselves.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_GRAPH_DEPGRAPH_H
#define ALPHONSE_GRAPH_DEPGRAPH_H

#include "graph/GraphPolicy.h"
#include "graph/Governor.h"
#include "support/Budget.h"
#include "support/FaultInfo.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace alphonse {

/// The dependency graph plus its evaluator.
///
/// All mutation goes through the graph so that bookkeeping (statistics,
/// partitions, pending sets) stays coherent. Execution is single-threaded,
/// matching the paper's execution model: one thread at a time drives a
/// graph, and nothing in it locks.
class DepGraph : public GraphPolicy {
public:
  /// Engine tunables (see GraphConfig in GraphStore.h).
  using Config = GraphConfig;

  explicit DepGraph(Statistics &Stats);
  DepGraph(Statistics &Stats, Config Cfg);
  ~DepGraph();

  /// True if the evaluator is currently draining inconsistent sets.
  bool isEvaluating() const { return EvalDepth != 0; }

  /// Records that \p Sink depends on \p Source and raises Sink's level
  /// above Source's. A read Sink's current execution already recorded is
  /// skipped (dedup). A read that names the source of the previous run's
  /// edge at Sink's read cursor keeps that edge (no allocation, link,
  /// union or journal entry); any other read links a new edge just behind
  /// the cursor and unites the two partitions.
  void addDependency(DepNode &Sink, DepNode &Source);

  /// Detaches every predecessor edge of \p Sink (node destruction).
  void removePredEdges(DepNode &Sink);

  /// Marks the start of an execution of procedure node \p Proc: sets
  /// consistent(Proc) (Algorithm 5), clears its level, stamps it for edge
  /// dedup, and flags it as executing. The previous run's predecessor
  /// edges stay linked, and Proc's read cursor points at the oldest of
  /// them, the one a run that repeats the previous reads reads first.
  void beginExecution(DepNode &Proc);

  /// Marks the end of the current execution of \p Proc, thrown or not:
  /// unlinks the previous run's edges this run did not read again, so
  /// Proc's predecessors are exactly this run's referenced-argument set
  /// R(p) (Algorithm 5). If the node was invalidated while it ran (e.g. it
  /// wrote storage it also reads), it stays inconsistent and is left
  /// queued for a later round.
  void endExecution(DepNode &Proc);

  /// Drains the inconsistent set of \p N's partition, processing each node
  /// per Section 4.5. Reentrant: procedure executions triggered from inside
  /// may call back into the evaluator. At top level it is a wave of its
  /// own only under a limited default budget.
  void evaluateFor(DepNode &N);

  /// Drains every partition's inconsistent set (Section 4.5). Governed by
  /// the Governor's default budget (unlimited unless configured).
  void evaluateAll() { evaluateAll(Gov.defaultBudget()); }

  /// Budgeted quiescence propagation (DESIGN.md Section 11): drains
  /// pending work under \p B's wall-clock deadline / evaluation-step
  /// budget / slab-memory ceiling. When a bound is exhausted mid-wave,
  /// the drain is cooperatively cancelled at the next evaluation
  /// boundary; the residual inconsistent sets stay parked (resumable by
  /// any later pump), the unrepaired cone is stamped stale
  /// (DepNode::isStale()), and the degraded outcome is returned. With an
  /// unlimited budget this is the classic run-to-quiescence wave and
  /// always returns Completed. Under an open batch a degraded outcome is
  /// surfaced by commitBatch() as an abort instead (no stale values ever
  /// escape a transaction).
  WaveOutcome evaluateAll(const WaveBudget &B);

  /// Budget applied by the zero-argument evaluateAll() — i.e. by every
  /// pump the embedding layers issue without an explicit budget.
  /// Unlimited by default.
  void setDefaultBudget(const WaveBudget &B) { Gov.setDefaultBudget(B); }

  /// The graph's resource governor (budgets, cancellation, staleness).
  Governor &governor() { return Gov; }
  const Governor &governor() const { return Gov; }

  //===--------------------------------------------------------------------===//
  // Transactional mutation batches — see DESIGN.md "Transactions and
  // recovery". Batches do not nest. (The journaling primitives — inBatch,
  // epoch, logUndo, abortFault — live in GraphPolicy; the drivers are
  // here because committing runs the evaluator.)
  //===--------------------------------------------------------------------===//

  /// Opens a batch. The graph should be quiescent (numPending() == 0);
  /// callers normally pump first (Runtime::beginBatch does). Must not be
  /// called while the evaluator is draining, and batches do not nest.
  void beginBatch();

  /// Runs quiescence propagation (evaluateAll) for the batch. If any node
  /// faulted during the batch or the propagation — exception, divergence,
  /// cycle, step limit — the whole batch is rolled back to the pre-batch
  /// state and this returns false (abortFault() tells why). On success
  /// the journal is discarded, the epoch advances, and this returns true.
  bool commitBatch();

  /// Replays the undo journal in reverse, restoring the pre-batch
  /// quiescent state: storage snapshots, cached values, edges, levels,
  /// execution stamps, versions, quarantine membership, and pending sets
  /// (cleared — the pre-batch state was quiescent). Audited by verify()
  /// under Config::Audit.
  void rollbackBatch();

  /// Opens a bounded re-entrant (conventional) run of the in-flight
  /// instance \p N. Throws CycleError when Config::MaxReentrantDepth is
  /// exceeded — the generic in-flight dependency-cycle detector.
  void beginReentrant(DepNode &N);
  void endReentrant(DepNode &N);

  /// Flags the executing node \p Proc inconsistent mid-run, as if it wrote
  /// storage it reads (endExecution then re-queues eager nodes). Used by
  /// the fault-injection harness to force divergence.
  void selfInvalidate(DepNode &Proc);

  /// Invariant audit over the whole graph: live node/edge counts, table
  /// generations, edge linkage, level monotonicity across up-to-date
  /// edges, pending-set and partition agreement, and quarantine
  /// disjointness. \returns one message per violation (empty = healthy).
  /// Runnable any time the evaluator is not mid-step; Config::Audit runs
  /// it after every outermost drain and every rollback.
  std::vector<std::string> verify() const;

private:
  friend class DepNode;

  void registerNode(DepNode &N);
  void unregisterNode(DepNode &N);

  /// registerNode compacts the partition forest once it holds more than
  /// twice as many elements as live nodes plus this many.
  static constexpr size_t PartitionSlack = 64;
  /// Rebuilds the partition forest with one element per live node and the
  /// same partitions; empties SetVec and DirtyRoots. Nothing may be
  /// pending.
  void compactPartitions();

  /// Processes one popped node per the Section 4.5 case analysis. Never
  /// throws: a failing recompute quarantines the node and the drain
  /// continues with the partition's remaining pending work.
  void processNode(DepNode &N);

  /// True when the per-propagation divergence counter of \p N trips
  /// Config::MaxReexecutions (counter is maintained here).
  bool tripsReexecutionLimit(DepNode &N);

  /// Runs a top-level drain of \p Scope's partition (every partition when
  /// null) as one governed wave under \p B: overload admission (full
  /// pumps outside a batch only), open/close, and outside a batch the
  /// stale stamping of a degraded wave or the clearing after a complete
  /// one. \returns the wave's outcome.
  WaveOutcome runWave(DepNode *Scope, const WaveBudget &B);

  /// The evaluation routine (Section 4.5): pops \p Scope's partition set
  /// (every partition's when null) until it is empty, a budget stops the
  /// wave, or the step limit trips. Re-entered calls (from inside an
  /// execution) run under the enclosing wave. The outermost drain is
  /// audited under Config::Audit.
  void drain(DepNode *Scope);

  /// The root of the most recently dirtied partition that still has
  /// pending work, left on DirtyRoots; stale entries above it (roots
  /// drained or merged away since they were listed) are dropped, and
  /// every entry when nothing is pending. \returns an id past every set
  /// when nothing is pending.
  UnionFind::Id nextDirtyRoot();

  /// Runs verify() and, on any finding, ends the process through
  /// fatalError with every message (Config::Audit's gate).
  void audit(const char *After) const;

  /// Cooperative-cancellation poll, called by the drain loop before
  /// popping the next node. Free when the current wave is unbudgeted
  /// (one bool); otherwise runs the governor's boundary check against
  /// the live step counter and slab gauges.
  bool governorStop() {
    if (!Gov.checksOn())
      return false;
    return Gov.cancelled() ||
           Gov.checkBoundary(EvalSteps, LastNodeBytes + LastEdgeBytes);
  }

  /// After a cancelled wave: stamps every still-pending node and its
  /// transitive successor cone stale (readers of those values get the
  /// last-quiescent snapshot, flagged via DepNode::isStale()).
  void stampStaleResidue();
  /// After a wave reaches full quiescence: clears every stale mark.
  void clearStaleMarks();

  /// Unlinks and frees \p Sink's predecessor edges from the front of its
  /// list up to, not including, \p Keep (every edge when \p Keep is
  /// null), journaling them as one PredsRemoved entry inside a batch.
  void removePredsBefore(DepNode &Sink, EdgeId Keep);

  /// Undoes one journal entry. \p Relinked maps each edge that replay
  /// of a PredsRemoved entry relinked to its new handle, so that an older
  /// EdgeAdded entry naming the detached edge finds its replacement.
  void applyUndo(UndoEntry &E, std::unordered_map<EdgeId, EdgeId> &Relinked);
  /// Unlinks and frees edge \p Id (rollback of its EdgeAdded entry).
  void dropEdge(EdgeId Id);

  /// Source of DepNode::Version stamps; monotonic, never rolled back.
  uint64_t VersionCounter = 0;
  /// Source of DepNode::ExecStamp.
  uint64_t StampCounter = 0;
  /// Nodes processed by the current top-level propagation.
  uint64_t EvalSteps = 0;
  /// Stamp of the current top-level propagation (divergence counters are
  /// scoped to one epoch).
  uint64_t EvalEpoch = 0;
  int EvalDepth = 0;
  /// Set when EvalStepLimit trips; every nested drain unwinds, leaving the
  /// remaining pending work queued. Cleared at the next top-level entry.
  bool DrainAborted = false;

  /// Resource governance: wave budgets, the cancel latch, staleness and
  /// parked-residue bookkeeping (DESIGN.md Section 11).
  Governor Gov;
};

/// RAII pair for beginExecution/endExecution: the execution protocol is
/// correctly closed even when the procedure body throws, so a failing
/// recompute unwinds with the graph's flags and queues coherent.
class ExecutionScope {
public:
  ExecutionScope(DepGraph &G, DepNode &Proc) : G(G), Proc(Proc) {
    G.beginExecution(Proc);
  }
  ~ExecutionScope() { G.endExecution(Proc); }

  ExecutionScope(const ExecutionScope &) = delete;
  ExecutionScope &operator=(const ExecutionScope &) = delete;

private:
  DepGraph &G;
  DepNode &Proc;
};

/// RAII pair for beginReentrant/endReentrant around a re-entrant
/// (conventional) run of an in-flight instance. The constructor throws
/// CycleError when the nesting exceeds Config::MaxReentrantDepth.
class ReentrantScope {
public:
  ReentrantScope(DepGraph &G, DepNode &Proc) : G(G), Proc(Proc) {
    G.beginReentrant(Proc); // May throw; the destructor then never runs.
  }
  ~ReentrantScope() { G.endReentrant(Proc); }

  ReentrantScope(const ReentrantScope &) = delete;
  ReentrantScope &operator=(const ReentrantScope &) = delete;

private:
  DepGraph &G;
  DepNode &Proc;
};

//===----------------------------------------------------------------------===//
// DepNode edge walks (declared in DepNode.h; the EdgeId chains resolve
// through the graph's edge table, so DepGraph must be complete here).
//===----------------------------------------------------------------------===//

template <typename Fn> void DepNode::forEachPredecessor(Fn F) const {
  assert(Graph && "node not attached to a graph");
  for (EdgeId E = FirstPred; E;) {
    const Edge &Ed = Graph->edge(E);
    F(Graph->node(Ed.Source));
    E = Ed.NextPred;
  }
}

template <typename Fn> void DepNode::forEachSuccessor(Fn F) const {
  assert(Graph && "node not attached to a graph");
  for (EdgeId E = FirstSucc; E;) {
    const Edge &Ed = Graph->edge(E);
    F(Graph->node(Ed.Sink));
    E = Ed.NextSucc;
  }
}

} // namespace alphonse

#endif // ALPHONSE_GRAPH_DEPGRAPH_H
