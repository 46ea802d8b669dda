//===- DepGraph.cpp - Dynamic dependency graph ----------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the propagation layer: dependency recording (Section 4.3),
/// the evaluation routine (Section 4.5), the execution protocol, the
/// transaction drivers, and the invariant audit. Partition / pending-set /
/// quarantine / journal policy lives in GraphPolicy.cpp; slab storage
/// mechanics live in GraphStore.cpp.
///
//===----------------------------------------------------------------------===//

#include "graph/DepGraph.h"

#include "support/Diagnostics.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

namespace alphonse {

//===----------------------------------------------------------------------===//
// DepNode
//===----------------------------------------------------------------------===//

DepNode::DepNode(DepGraph &Graph, NodeKind Kind, EvalStrategy Strategy)
    : Graph(&Graph), Kind(Kind), Strategy(Strategy) {
  // Storage nodes are created at the first tracked access, when the cached
  // snapshot equals the live value; procedure nodes are created at the first
  // call, before the procedure has ever run (Algorithm 5 marks them
  // inconsistent).
  Consistent = (Kind == NodeKind::Storage);
  Graph.registerNode(*this);
}

DepNode::~DepNode() {
  if (Graph)
    Graph->unregisterNode(*this);
}

size_t DepNode::numPredecessors() const {
  assert(Graph && "node not attached to a graph");
  return Graph->numPredecessors(*this);
}

size_t DepNode::numSuccessors() const {
  assert(Graph && "node not attached to a graph");
  return Graph->numSuccessors(*this);
}

//===----------------------------------------------------------------------===//
// DepGraph: construction and node registry
//===----------------------------------------------------------------------===//

DepGraph::DepGraph(Statistics &Stats) : GraphPolicy(Stats), Gov(Stats) {}

DepGraph::DepGraph(Statistics &Stats, Config Cfg)
    : GraphPolicy(Stats, Cfg), Gov(Stats) {}

DepGraph::~DepGraph() {
  assert(NumLiveNodes == 0 &&
         "dependency-graph nodes must be destroyed before their graph; "
         "declare the Runtime before any Cell or Maintained");
}

void DepGraph::registerNode(DepNode &N) {
  // Dead nodes never give their union-find element back, so churn grows
  // the forest (and SetVec, indexed by its roots) past the live graph.
  // Compact while nothing is pending, before this node takes an element.
  if (TotalPending == 0 &&
      Partitions.size() > 2 * NumLiveNodes + PartitionSlack)
    compactPartitions();
  N.Id = allocNodeSlot(N);
  // Without partitioning (the E9 ablation) every node joins the first
  // partition, so one pending set holds all the work.
  N.Partition = Cfg.Partitioning || Partitions.size() == 0
                    ? Partitions.makeSet()
                    : 0;
  ++NumLiveNodes;
  ++Stats.NodesCreated;
}

void DepGraph::compactPartitions() {
  // Each live node gets a fresh element, united with the elements of the
  // nodes that shared its old root: membership is preserved exactly, as
  // rollback requires (it relinks edges without uniting).
  UnionFind Fresh;
  std::vector<UnionFind::Id> NewOf(Partitions.size(), UINT32_MAX);
  for (uint32_t Slot = 0; Slot < NodeTab.span(); ++Slot) {
    DepNode *N = NodeTab.at(Slot);
    if (!N)
      continue;
    UnionFind::Id &Rep = NewOf[Partitions.find(N->Partition)];
    N->Partition = Fresh.makeSet();
    if (Rep == UINT32_MAX)
      Rep = N->Partition;
    else
      Fresh.unite(Rep, N->Partition);
  }
  Partitions = std::move(Fresh);
  // Nothing is pending, so every set is empty; the roots they were
  // indexed by are gone.
  std::vector<InconsistentSet>().swap(SetVec);
  DirtyRoots.clear();
}

void DepGraph::unregisterNode(DepNode &N) {
  // Drop any pending entry for the dying node.
  eraseFromPendingSets(N);
  if (size_t I = findFault(N.Id); I != SIZE_MAX) {
    Quarantine[I] = std::move(Quarantine.back());
    Quarantine.pop_back();
  }
  if (!Gov.Strikes.empty())
    Gov.Strikes.erase(N.Id);

  removePredEdges(N);

  // Anything that depended on this node just lost a dependency; that is a
  // change and must propagate (the paper relies on garbage collection here;
  // see the substitution table in DESIGN.md). A running sink that has not
  // read this node again never saw its value, so it is not invalidated;
  // its read cursor steps off the dying edge toward the list's front.
  EdgeId E = N.FirstSucc;
  while (E) {
    Edge &Ed = edge(E);
    EdgeId Next = Ed.NextSucc;
    DepNode &Sink = node(Ed.Sink);
    bool Unread = isUnread(Sink, E);
    if (Sink.ReadCursor == E)
      Sink.ReadCursor = Ed.PrevPred;
    dropEdge(E);
    if (!Unread)
      markInconsistent(Sink);
    E = Next;
  }

  // A node destroyed mid-batch by the mutator invalidates every journal
  // entry pointing at it; drop them so a later rollback never touches the
  // dead node. (Rollback itself destroys batch-created nodes through
  // typed-layer closures; those run with TxnRollingBack set.)
  if (journaling())
    Journal.scrub(N.Id);

  // Recycle the table slot last: the generation bump makes every handle
  // still naming this node stale from here on.
  freeNodeSlot(N.Id);
  N.Id = NodeId();
  --NumLiveNodes;
  ++Stats.NodesDestroyed;
  N.Graph = nullptr;
}

//===----------------------------------------------------------------------===//
// Edges
//===----------------------------------------------------------------------===//

void DepGraph::addDependency(DepNode &Sink, DepNode &Source) {
  assert(Sink.Graph == this && Source.Graph == this &&
         "edge endpoints belong to another graph");
  assert(Sink.isProcedure() && "only procedure instances have dependencies");

  // Level update happens even for deduplicated edges (it is idempotent).
  if (Sink.Level <= Source.Level)
    Sink.Level = Source.Level + 1;
  // A source read mid-execution hands the sink its transient (partially
  // rebuilt) level; remember that so the verify() level audit knows this
  // source's successor edges may legitimately invert.
  if (Source.Executing)
    Source.ReadMidExecution = true;

  if (Sink.ExecStamp != 0 && Source.DedupSink == Sink.Id &&
      Source.DedupStamp == Sink.ExecStamp) {
    ++Stats.EdgesDeduped;
    return;
  }
  Source.DedupSink = Sink.Id;
  Source.DedupStamp = Sink.ExecStamp;

  // A run that reads what the previous run read, in the same order, meets
  // each old edge at the cursor: keep it and move the cursor toward the
  // list's front. The edge's endpoints already share a partition (unions
  // only merge, and compaction and rollback keep membership).
  if (EdgeId C = Sink.ReadCursor) {
    const Edge &Old = edge(C);
    if (Old.Source == Source.Id) {
      Sink.ReadCursor = Old.PrevPred;
      ++Stats.EdgesKept;
      return;
    }
  }

  // A new read: link it just behind the cursor, so the edges this run read
  // stay in newest-first order behind the unread prefix.
  EdgeId E = allocEdge();
  linkEdge(E, Source, Sink, Sink.ReadCursor);

  ++Stats.EdgesCreated;
  ++NumLiveEdges;

  if (journaling()) {
    UndoEntry U;
    U.K = UndoEntry::Kind::EdgeAdded;
    U.Sink = Sink.Id;
    U.Source = Source.Id;
    U.Edge = E;
    Journal.push(std::move(U));
    ++Stats.TxnUndoEntries;
  }

  // Dynamic partition refinement (Section 6.3): connected nodes share one
  // instance of quiescence propagation.
  UnionFind::Id RootA = Partitions.find(Sink.Partition);
  UnionFind::Id RootB = Partitions.find(Source.Partition);
  if (RootA == RootB)
    return;
  uniteRoots(RootA, RootB);
}

void DepGraph::removePredEdges(DepNode &Sink) {
  Sink.ReadCursor = EdgeId();
  removePredsBefore(Sink, EdgeId());
}

void DepGraph::removePredsBefore(DepNode &Sink, EdgeId Keep) {
  if (Sink.FirstPred == Keep)
    return;
  std::vector<std::pair<NodeId, EdgeId>> Removed;
  bool Log = journaling();
  uint64_t Count = 0;
  EdgeId E = Sink.FirstPred;
  while (E != Keep) {
    Edge &Ed = edge(E);
    EdgeId Next = Ed.NextPred;
    if (Log)
      Removed.emplace_back(Ed.Source, E);
    // The whole prefix dies, so only the source-side successor lists need
    // repairing; the pred-list links between dying edges are never read
    // again (the generic unlinkEdge would maintain them, half of it wasted
    // work on this path).
    if (Ed.PrevSucc)
      edge(Ed.PrevSucc).NextSucc = Ed.NextSucc;
    else
      node(Ed.Source).FirstSucc = Ed.NextSucc;
    if (Ed.NextSucc)
      edge(Ed.NextSucc).PrevSucc = Ed.PrevSucc;
    freeEdgeSlot(E);
    ++Count;
    E = Next;
  }
  Sink.FirstPred = Keep;
  if (Keep)
    edge(Keep).PrevPred = EdgeId();
  Stats.EdgesRemoved += Count;
  NumLiveEdges -= Count;
  if (Log) {
    UndoEntry U;
    U.K = UndoEntry::Kind::PredsRemoved;
    U.Sink = Sink.Id;
    U.Preds = std::move(Removed);
    Journal.push(std::move(U));
    ++Stats.TxnUndoEntries;
  }
}

//===----------------------------------------------------------------------===//
// Execution protocol hooks
//===----------------------------------------------------------------------===//

void DepGraph::beginExecution(DepNode &Proc) {
  assert(Proc.isProcedure() && "only procedures execute");
  assert(!Proc.Executing && "recursive execution of one procedure instance; "
                            "a DET incremental procedure cannot call itself "
                            "with identical arguments");
  if (journaling()) {
    UndoEntry U;
    U.K = UndoEntry::Kind::ExecSnapshot;
    U.Sink = Proc.Id;
    U.WasConsistent = Proc.Consistent;
    U.OldLevel = Proc.Level;
    U.OldStamp = Proc.ExecStamp;
    U.OldVersion = Proc.Version;
    Journal.push(std::move(U));
    ++Stats.TxnUndoEntries;
  }
  // An execution re-establishes the node's value from live inputs, so any
  // stale mark left by a cancelled wave is repaired here.
  if (Proc.Stale) {
    Proc.Stale = false;
    --Gov.StaleCount;
  }
  // Algorithm 5 sets consistent(n) := TRUE before running the body so that
  // invalidation during the run (e.g. a self-write) is observable afterward.
  Proc.Consistent = true;
  Proc.Executing = true;
  Proc.ReadMidExecution = false;
  Proc.Level = 0;
  // The previous run's edges stay linked; the run compares each read with
  // the edge at the cursor, starting at the oldest (the list's tail).
  EdgeId Tail;
  for (EdgeId E = Proc.FirstPred; E; E = edge(E).NextPred)
    Tail = E;
  Proc.ReadCursor = Tail;
  Proc.ExecStamp = ++StampCounter;
  // Conservative: every execution may change the cached value.
  Proc.Version = ++VersionCounter;
  ++Stats.ProcExecutions;
}

void DepGraph::endExecution(DepNode &Proc) {
  assert(Proc.Executing && "endExecution without beginExecution");
  Proc.Executing = false;
  // Trim the previous run's edges this run did not read again: the prefix
  // up to and including the cursor.
  if (EdgeId Last = Proc.ReadCursor) {
    Proc.ReadCursor = EdgeId();
    removePredsBefore(Proc, edge(Last).NextPred);
  }
  // Invalidated mid-run: demand nodes recompute at their next call; eager
  // nodes must be queued again so the pump re-runs them.
  if (!Proc.Consistent && Proc.Strategy == EvalStrategy::Eager)
    markInconsistent(Proc);
}

//===----------------------------------------------------------------------===//
// Evaluation (Section 4.5)
//===----------------------------------------------------------------------===//

bool DepGraph::tripsReexecutionLimit(DepNode &N) {
  if (Cfg.MaxReexecutions == 0)
    return false;
  if (N.ReexecEpoch != EvalEpoch) {
    N.ReexecEpoch = EvalEpoch;
    N.ReexecCount = 0;
  }
  return ++N.ReexecCount > Cfg.MaxReexecutions;
}

/// Nested-evaluation time (microseconds) accumulated by processNode frames
/// below the current one on this thread, for the watchdog's self-time
/// attribution (see the Watch block in processNode). Stack-disciplined:
/// each watched frame zeroes it on entry and restores parent+wall on exit.
static thread_local uint64_t WatchNestedUs = 0;

void DepGraph::processNode(DepNode &N) {
  ++Stats.EvalSteps;
  uint64_t Steps = ++EvalSteps;
  if (Cfg.EvalStepLimit != 0 && Steps > Cfg.EvalStepLimit) {
    // Global backstop: propagation did not converge. Quarantine the node
    // in hand (so the next pump makes progress past it) and unwind the
    // drain, leaving the remaining pending work queued.
    ++Stats.StepLimitTrips;
    DrainAborted = true;
    quarantine(N, {FaultKind::StepLimit, N.name(),
                   "propagation exceeded EvalStepLimit (" +
                       std::to_string(Cfg.EvalStepLimit) +
                       " steps) without converging; an incremental "
                       "procedure likely violates the DET restriction "
                       "(Section 3.5)",
                   nullptr});
    return;
  }

  // Processing repairs the node (or, for demand nodes, hands repair to the
  // next call), so a stale mark left by a cancelled wave is lifted here.
  if (N.Stale) {
    N.Stale = false;
    --Gov.StaleCount;
  }

  if (N.isStorage()) {
    bool Changed = true;
    try {
      Changed = N.refreshStorage();
    } catch (...) {
      quarantine(N, captureCurrentFault(N.name()));
      return;
    }
    if (!Cfg.VariableCutoff)
      Changed = true;
    if (Changed) {
      if (journaling()) {
        UndoEntry U;
        U.K = UndoEntry::Kind::VersionStamp;
        U.Sink = N.Id;
        U.OldVersion = N.Version;
        Journal.push(std::move(U));
        ++Stats.TxnUndoEntries;
      }
      N.Version = ++VersionCounter;
      enqueueSuccessors(N);
    } else {
      ++Stats.QuiescenceCutoffs;
    }
    return;
  }

  // Procedures currently on the call stack are only flag-invalidated here;
  // eager ones re-queue themselves at endExecution.
  if (N.Strategy == EvalStrategy::Demand || N.Executing) {
    if (N.Consistent) {
      if (journaling()) {
        // Reuse ExecSnapshot: it captures the current Level / ExecStamp /
        // Version (unchanged here, so restoring them is a no-op) along
        // with the Consistent bit being cleared.
        UndoEntry U;
        U.K = UndoEntry::Kind::ExecSnapshot;
        U.Sink = N.Id;
        U.WasConsistent = true;
        U.OldLevel = N.Level;
        U.OldStamp = N.ExecStamp;
        U.OldVersion = N.Version;
        Journal.push(std::move(U));
        ++Stats.TxnUndoEntries;
      }
      N.Consistent = false;
      enqueueSuccessors(N);
    }
    return;
  }

  // Divergence guard: a node that keeps re-entering the pending set within
  // one propagation is invalidating itself (a DET violation) and would
  // re-execute forever.
  if (tripsReexecutionLimit(N)) {
    ++Stats.DivergenceTrips;
    quarantine(N, {FaultKind::Divergence, N.name(),
                   "re-executed more than MaxReexecutions (" +
                       std::to_string(Cfg.MaxReexecutions) +
                       ") times in one propagation; the procedure keeps "
                       "invalidating itself and violates the DET "
                       "restriction (Section 3.5)",
                   nullptr});
    return;
  }

  // Idle eager procedure: re-execute through the call protocol; propagate
  // only if the cached value changed (quiescence propagation, Section 2).
  // A throwing body quarantines the node; the drain continues with the
  // partition's remaining work.
  bool Changed;
  // Watchdog (DESIGN.md Section 11): while a deadline-budgeted wave runs,
  // time each single evaluation. A node whose own body repeatedly
  // consumes the whole deadline would make every governed wave degrade
  // without progress; after Config::WatchdogTrips *consecutive* strikes
  // it is quarantined with a Deadline fault. Only self time counts: a
  // body whose demand read triggers a nested drain (ensureEvaluatedFor)
  // spends other nodes' evaluation time inside its own wall-clock window,
  // and billing that to the enclosing node would quarantine innocent
  // nodes whose dependencies merely had a deep backlog. WatchSelf is
  // stack-disciplined (thread-local): each frame zeroes the accumulator,
  // measures its wall time, subtracts what nested frames reported, and
  // adds its full wall time to the parent's share of nested work.
  const bool Watch = Gov.deadlineActive() && Cfg.WatchdogTrips != 0;
  uint64_t SavedNestedUs = 0;
  uint64_t EvalStartUs = 0;
  if (Watch) {
    SavedNestedUs = WatchNestedUs;
    WatchNestedUs = 0;
    EvalStartUs = GovClock::nowUs();
  }
  auto BillWatch = [&]() -> uint64_t {
    const uint64_t WallUs = GovClock::nowUs() - EvalStartUs;
    const uint64_t SelfUs = WallUs > WatchNestedUs ? WallUs - WatchNestedUs : 0;
    WatchNestedUs = SavedNestedUs + WallUs;
    return SelfUs;
  };
  try {
    Changed = N.reexecute();
  } catch (...) {
    // The typed layer usually quarantines the node itself (with the most
    // precise fault kind) before rethrowing; this is the backstop for
    // hooks without that wrapping. quarantine() keeps the first fault.
    if (Watch)
      BillWatch();
    quarantine(N, captureCurrentFault(N.name()));
    return;
  }
  if (Watch) {
    const bool Blown = BillWatch() >= Gov.currentDeadlineUs();
    uint32_t Blows = 0;
    if (Blown)
      Blows = ++Gov.Strikes[N.Id];
    else
      Gov.Strikes.erase(N.Id); // A clean evaluation breaks the streak.
    if (Blown) {
      ++Stats.GovDeadlineBlows;
      if (Blows >= Cfg.WatchdogTrips) {
        ++Stats.GovWatchdogQuarantines;
        quarantine(N, {FaultKind::Deadline, N.name(),
                       "single evaluation consumed an entire wave deadline " +
                           std::to_string(Blows) +
                           " consecutive times (WatchdogTrips); the node "
                           "would starve every governed wave",
                       nullptr});
        return;
      }
    }
  }
  if (Changed) {
    enqueueSuccessors(N);
  } else {
    ++Stats.QuiescenceCutoffs;
  }
}

void DepGraph::evaluateFor(DepNode &N) {
  ++Stats.PartitionScopedEvals;
  // A top-level scoped pump is a wave of its own when a default budget is
  // configured; nested drains inherit the enclosing wave's budget through
  // governorStop(), and a batch's propagation is governed by its commit.
  if (EvalDepth == 0 && !TxnActive && !Gov.defaultBudget().unlimited())
    runWave(&N, Gov.defaultBudget());
  else
    drain(&N);
}

WaveOutcome DepGraph::evaluateAll(const WaveBudget &B) {
  // Re-entered from inside an execution: the enclosing wave (if any)
  // governs through governorStop(); just drain.
  if (EvalDepth != 0) {
    drain(nullptr);
    return WaveOutcome::Completed;
  }
  return runWave(nullptr, B);
}

WaveOutcome DepGraph::runWave(DepNode *Scope, const WaveBudget &B) {
  // Overload admission applies to full pumps outside a batch: a scoped
  // drain serves a demand that needs its partition repaired, and
  // commitBatch must always attempt the propagation so the abort/rollback
  // logic decides.
  if (!Scope && !TxnActive && !Gov.admitWave(B))
    return Gov.lastOutcome();

  Gov.openWave(B);
  try {
    drain(Scope);
  } catch (...) {
    Gov.closeWave(TotalPending);
    throw;
  }

  WaveOutcome O = Gov.closeWave(TotalPending);
  if (!TxnActive) {
    // Degradation bookkeeping (under a batch the commit path rolls the
    // whole state back instead; no stale values ever escape it).
    if (waveDegraded(O))
      stampStaleResidue();
    else if (TotalPending == 0)
      clearStaleMarks();
    Stats.GovStaleNodes = Gov.staleCount();
  }
  return O;
}

void DepGraph::drain(DepNode *Scope) {
  if (EvalDepth++ == 0) {
    EvalSteps = 0;
    ++EvalEpoch;
    DrainAborted = false;
  }
  try {
    while (!DrainAborted) {
      // Re-resolve the set each round: processing can merge partitions.
      InconsistentSet *S = findSet(
          Scope ? Partitions.find(Scope->Partition) : nextDirtyRoot());
      if (!S || S->empty() || governorStop())
        break;
      DepNode &U = S->pop(*this);
      --TotalPending;
      processNode(U);
    }
    // A scoped drain pops no DirtyRoots entries; drop the ones it left
    // stale, so a workload that only demands does not grow the list.
    if (Scope)
      nextDirtyRoot();
  } catch (...) {
    --EvalDepth;
    throw;
  }
  if (--EvalDepth == 0 && Cfg.Audit)
    audit("drain");
}

UnionFind::Id DepGraph::nextDirtyRoot() {
  while (TotalPending != 0) {
    if (DirtyRoots.empty()) {
      // Rebuild from the live sets (roots can go stale across merges).
      for (UnionFind::Id Root = 0; Root < SetVec.size(); ++Root)
        if (!SetVec[Root].empty())
          DirtyRoots.push_back(Root);
      assert(!DirtyRoots.empty() && "pending count desynchronized");
      if (DirtyRoots.empty())
        break;
    }
    UnionFind::Id Root = Partitions.find(DirtyRoots.back());
    if (InconsistentSet *S = findSet(Root); S && !S->empty())
      return Root;
    DirtyRoots.pop_back();
  }
  DirtyRoots.clear(); // Nothing is pending: every entry is stale.
  return std::numeric_limits<UnionFind::Id>::max();
}

void DepGraph::audit(const char *After) const {
  std::vector<std::string> Findings = verify();
  if (Findings.empty())
    return;
  std::string Msg = std::string("invariant audit after ") + After + ":";
  for (const std::string &F : Findings)
    Msg += "\n  " + F;
  fatalError(Msg.c_str());
}

//===----------------------------------------------------------------------===//
// Cycles and fault-injection hooks
//===----------------------------------------------------------------------===//

void DepGraph::beginReentrant(DepNode &N) {
  assert(N.Executing && "re-entrant run of an idle instance");
  if (Cfg.MaxReentrantDepth != 0 && N.ReentrantDepth >= Cfg.MaxReentrantDepth) {
    ++Stats.CycleFaults;
    throw CycleError("re-entrant call depth limit (" +
                     std::to_string(Cfg.MaxReentrantDepth) + ") reached on '" +
                     (N.name().empty() ? std::string("<anon>") : N.name()) +
                     "': the value depends on its own in-flight computation "
                     "(dependency cycle)");
  }
  ++N.ReentrantDepth;
}

void DepGraph::endReentrant(DepNode &N) {
  assert(N.ReentrantDepth > 0 && "endReentrant without beginReentrant");
  --N.ReentrantDepth;
}

void DepGraph::selfInvalidate(DepNode &Proc) {
  assert(Proc.Executing && "selfInvalidate outside an execution");
  Proc.Consistent = false;
}

//===----------------------------------------------------------------------===//
// Transactional mutation batches (see DESIGN.md "Transactions and recovery")
//===----------------------------------------------------------------------===//

void DepGraph::beginBatch() {
  assert(!TxnActive && "transactional batches do not nest");
  assert(!isEvaluating() && "beginBatch() inside the evaluator");
  faultInjectionPoint("txn.begin");
  TxnActive = true;
  TxnNewFaults = 0;
  AbortFault.reset();
  ++Stats.TxnBegun;
}

bool DepGraph::commitBatch() {
  assert(TxnActive && "commitBatch() without beginBatch()");
  assert(!isEvaluating() && "commitBatch() inside the evaluator");
  WaveOutcome O = WaveOutcome::Completed;
  try {
    faultInjectionPoint("txn.commit");
    // Quiescence propagation for the whole batch (the paper's Section 4.5
    // loop; Section 3.4 observes updates batch naturally). Faults inside
    // do not throw — they quarantine and bump TxnNewFaults.
    O = evaluateAll(Gov.defaultBudget());
  } catch (...) {
    ++TxnNewFaults;
    if (!AbortFault)
      AbortFault = captureCurrentFault("txn.commit");
  }
  if (waveDegraded(O) && !AbortFault) {
    // A budget exhausted mid-commit aborts the batch: a transaction must
    // be all-or-nothing, so degraded (partially propagated) state is
    // rolled back rather than served stale.
    AbortFault = FaultInfo{FaultKind::Deadline, std::string(),
                           std::string("commit propagation ended ") +
                               waveOutcomeName(O) +
                               ": wave budget exhausted mid-batch",
                           nullptr};
  }
  if (TxnNewFaults != 0 || DrainAborted || waveDegraded(O)) {
    rollbackBatch();
    return false;
  }
  Journal.clear();
  TxnActive = false;
  ++Epoch;
  ++Stats.TxnCommitted;
  return true;
}

void DepGraph::rollbackBatch() {
  assert(TxnActive && "rollbackBatch() without beginBatch()");
  assert(!isEvaluating() && "rollbackBatch() inside the evaluator");
  TxnRollingBack = true;
  std::unordered_map<EdgeId, EdgeId> Relinked;
  Journal.replayReverse([&](UndoEntry &E) { applyUndo(E, Relinked); });
  // The pre-batch state was quiescent (or its queue is unrecoverable, see
  // the beginBatch warning); nothing journaled during the batch may stay
  // pending.
  clearAllPending();
  Journal.clear();
  TxnRollingBack = false;
  TxnActive = false;
  // The restored state is the pre-batch quiescent one: nothing is parked.
  Gov.ParkedResidue = 0;
  Stats.GovParkedNodes = 0;
  ++Epoch;
  ++Stats.TxnRolledBack;
  // Undo replay freed nodes and edges wholesale without touching the
  // growth-triggered gauge hooks; publish so graph.node_bytes /
  // graph.edge_bytes / pool.high_water reflect the restored state.
  publishMemoryGauges();
  if (Cfg.Audit)
    audit("rollback");
}

void DepGraph::applyUndo(UndoEntry &E,
                         std::unordered_map<EdgeId, EdgeId> &Relinked) {
  switch (E.K) {
  case UndoEntry::Kind::Action:
    E.Undo();
    break;
  case UndoEntry::Kind::EdgeAdded: {
    // A later entry, replayed already, may have detached this edge and
    // relinked a replacement; either way the sink's list is back to its
    // state right after the add, so removing the edge restores the one
    // before it.
    EdgeId Id = E.Edge;
    if (auto It = Relinked.find(Id); It != Relinked.end())
      Id = It->second;
    if (isLiveEdge(Id) && edge(Id).Sink == E.Sink)
      dropEdge(Id);
    break;
  }
  case UndoEntry::Kind::PredsRemoved: {
    // The detached edges were a prefix of the sink's list: relinking them
    // at the front, oldest first, recovers the list's order. No level,
    // partition or dedup bookkeeping: ExecSnapshot entries restore levels
    // and stamps, and the endpoints still share a partition.
    DepNode &Sink = node(E.Sink);
    for (auto It = E.Preds.rbegin(); It != E.Preds.rend(); ++It) {
      EdgeId New = allocEdge();
      linkEdge(New, node(It->first), Sink);
      ++Stats.EdgesCreated;
      ++NumLiveEdges;
      Relinked[It->second] = New;
    }
    break;
  }
  case UndoEntry::Kind::ExecSnapshot: {
    DepNode &N = node(E.Sink);
    N.Consistent = E.WasConsistent;
    N.Level = E.OldLevel;
    N.ExecStamp = E.OldStamp;
    N.Version = E.OldVersion;
    break;
  }
  case UndoEntry::Kind::VersionStamp:
    node(E.Sink).Version = E.OldVersion;
    break;
  case UndoEntry::Kind::Quarantined: {
    DepNode &N = node(E.Sink);
    if (size_t I = findFault(E.Sink); I != SIZE_MAX) {
      Quarantine[I] = std::move(Quarantine.back());
      Quarantine.pop_back();
    }
    N.Quarantined = false;
    N.Consistent = E.WasConsistent;
    break;
  }
  case UndoEntry::Kind::QuarantineCleared: {
    DepNode &N = node(E.Sink);
    if (!N.Quarantined) {
      eraseFromPendingSets(N);
      N.Quarantined = true;
      N.Consistent = false;
      Quarantine.emplace_back(E.Sink, std::move(E.Saved));
    }
    break;
  }
  }
}

void DepGraph::dropEdge(EdgeId Id) {
  unlinkEdge(Id);
  freeEdgeSlot(Id);
  ++Stats.EdgesRemoved;
  --NumLiveEdges;
}

//===----------------------------------------------------------------------===//
// Graceful degradation: staleness stamping (DESIGN.md Section 11)
//===----------------------------------------------------------------------===//

void DepGraph::stampStaleResidue() {
  // Seed with everything still pending (the parked residue), then stamp
  // the transitive successor cone: any value downstream of unrepaired
  // work may reflect inputs the cancelled wave never propagated. Nodes
  // already stale from an earlier wave are walked again (their cones
  // may have grown), so the walk keeps its own visited set.
  std::vector<NodeId> Stack;
  std::unordered_set<NodeId> Seen;
  for (const InconsistentSet &S : SetVec)
    S.forEach(*this, [&](const DepNode &N) { Stack.push_back(N.Id); });

  while (!Stack.empty()) {
    NodeId Id = Stack.back();
    Stack.pop_back();
    if (!isLiveNode(Id) || !Seen.insert(Id).second)
      continue;
    DepNode &N = node(Id);
    if (!N.Stale) {
      N.Stale = true;
      Gov.StaleList.push_back(Id);
      ++Gov.StaleCount;
    }
    ++Stats.GovNodesStamped;
    N.forEachSuccessor([&](DepNode &Succ) { Stack.push_back(Succ.Id); });
  }
}

void DepGraph::clearStaleMarks() {
  if (Gov.StaleList.empty())
    return;
  for (NodeId Id : Gov.StaleList)
    if (isLiveNode(Id))
      node(Id).Stale = false;
  Gov.StaleList.clear();
  Gov.StaleCount = 0;
}

//===----------------------------------------------------------------------===//
// Invariant audit
//===----------------------------------------------------------------------===//

std::vector<std::string> DepGraph::verify() const {
  std::vector<std::string> Bad;
  auto Name = [](const DepNode &N) {
    return N.name().empty() ? std::string("<anon>") : N.name();
  };

  // Nodes: table occupancy, per-node flag sanity, edge linkage and levels.
  size_t Nodes = 0, SuccEdges = 0, PredEdges = 0, Queued = 0, Marked = 0;
  for (uint32_t Slot = 0; Slot < NodeTab.span(); ++Slot) {
    const DepNode *N = NodeTab.at(Slot);
    if (!N)
      continue;
    ++Nodes;
    if (N->Graph != this)
      Bad.push_back("node '" + Name(*N) + "' registered here but points at "
                    "another graph");
    if (!isLiveNode(N->Id) || N->Id.index() != Slot)
      Bad.push_back("node '" + Name(*N) +
                    "' occupies a table slot its handle does not resolve to");
    if (N->InQueue)
      ++Queued;
    if (N->ReadCursor && !N->Executing)
      Bad.push_back("idle node '" + Name(*N) + "' holds a read cursor");
    if (N->Quarantined) {
      ++Marked;
      if (findFault(N->Id) == SIZE_MAX)
        Bad.push_back("node '" + Name(*N) +
                      "' flagged quarantined but has no recorded fault");
      if (N->InQueue)
        Bad.push_back("quarantined node '" + Name(*N) +
                      "' still sits in a pending set");
      if (N->Executing)
        Bad.push_back("quarantined node '" + Name(*N) + "' marked executing");
      if (N->Consistent)
        Bad.push_back("quarantined node '" + Name(*N) + "' marked consistent");
    }
    for (EdgeId EId = N->FirstSucc; EId;) {
      if (!isLiveEdge(EId)) {
        Bad.push_back("successor list of '" + Name(*N) +
                      "' holds a stale edge handle");
        break;
      }
      const Edge &E = edge(EId);
      ++SuccEdges;
      if (E.Source != N->Id)
        Bad.push_back("successor edge of '" + Name(*N) +
                      "' has a different source");
      if (!isLiveNode(E.Sink) || !node(E.Sink).isProcedure()) {
        Bad.push_back("edge from '" + Name(*N) +
                      "' sinks into a non-procedure node");
      } else if (Partitions.root(N->Partition) !=
                 Partitions.root(node(E.Sink).Partition)) {
        // A re-read keeps its edge without a union, which is sound only
        // while every edge lies within one partition.
        Bad.push_back("edge '" + Name(*N) + "' -> '" +
                      Name(node(E.Sink)) + "' crosses partitions");
      }
      if (E.NextSucc && edge(E.NextSucc).PrevSucc != EId)
        Bad.push_back("successor list of '" + Name(*N) +
                      "' has a broken back link");
      // Level monotonicity: an edge records sink-depends-on-source during
      // the sink's execution, which raises the sink's level above the
      // source's. The source's level can only move by a later execution of
      // the source (which advances its stamp past the sink's), so for
      // edges whose source has not re-executed since, sink > source holds.
      // Two exemptions come from re-entrant reads of an in-flight source
      // (which hand the sink the source's *transient* level): a sink
      // parked in an inconsistent set will re-execute and rebuild its
      // level, and a source flagged ReadMidExecution may keep inverted
      // successor edges even at quiescence when its value did not change
      // (so the readers were never re-queued). The third: a running sink
      // rebuilds its level from 0 as it reads, so the edges it has not
      // read again (and only those) may sit above it.
      if (isLiveNode(E.Sink) && !N->ReadMidExecution) {
        const DepNode &Sink = node(E.Sink);
        if (!Sink.InQueue && N->ExecStamp < Sink.ExecStamp &&
            Sink.Level <= N->Level && !isUnread(Sink, EId))
          Bad.push_back("level inversion on up-to-date edge '" + Name(*N) +
                        "' -> '" + Name(Sink) + "' (" +
                        std::to_string(N->Level) + " >= " +
                        std::to_string(Sink.Level) + ")");
      }
      EId = E.NextSucc;
    }
    bool CursorSeen = false;
    for (EdgeId EId = N->FirstPred; EId;) {
      if (!isLiveEdge(EId)) {
        Bad.push_back("predecessor list of '" + Name(*N) +
                      "' holds a stale edge handle");
        break;
      }
      const Edge &E = edge(EId);
      ++PredEdges;
      CursorSeen |= EId == N->ReadCursor;
      if (E.Sink != N->Id)
        Bad.push_back("predecessor edge of '" + Name(*N) +
                      "' has a different sink");
      if (E.NextPred && edge(E.NextPred).PrevPred != EId)
        Bad.push_back("predecessor list of '" + Name(*N) +
                      "' has a broken back link");
      EId = E.NextPred;
    }
    if (N->ReadCursor && !CursorSeen)
      Bad.push_back("read cursor of '" + Name(*N) +
                    "' is not on its predecessor list");
  }
  if (Nodes != NumLiveNodes)
    Bad.push_back("live node count " + std::to_string(NumLiveNodes) +
                  " != " + std::to_string(Nodes) + " registered nodes");
  if (SuccEdges != NumLiveEdges)
    Bad.push_back("live edge count " + std::to_string(NumLiveEdges) +
                  " != " + std::to_string(SuccEdges) + " successor edges");
  if (PredEdges != NumLiveEdges)
    Bad.push_back("live edge count " + std::to_string(NumLiveEdges) +
                  " != " + std::to_string(PredEdges) + " predecessor edges");

  // Pending sets: entry flags, set sizes, and the global count agree.
  size_t SetEntries = 0;
  for (const InconsistentSet &S : SetVec) {
    SetEntries += S.size();
    S.forEach(*this, [&](const DepNode &N) {
      if (!N.InQueue)
        Bad.push_back("pending-set entry '" + Name(N) +
                      "' is not flagged InQueue");
      if (N.Graph != this)
        Bad.push_back("pending-set entry '" + Name(N) +
                      "' belongs to another graph");
    });
  }
  if (SetEntries != TotalPending)
    Bad.push_back("pending count " + std::to_string(TotalPending) + " != " +
                  std::to_string(SetEntries) + " queued set entries");
  if (Queued != TotalPending)
    Bad.push_back("pending count " + std::to_string(TotalPending) + " != " +
                  std::to_string(Queued) + " nodes flagged InQueue");

  // Quarantine set: disjoint from pending work, flags agree both ways.
  if (Marked != Quarantine.size())
    Bad.push_back("quarantine set holds " + std::to_string(Quarantine.size()) +
                  " faults but " + std::to_string(Marked) +
                  " nodes are flagged quarantined");
  for (const auto &Entry : Quarantine) {
    if (!isLiveNode(Entry.first)) {
      Bad.push_back("quarantine set holds a stale node handle");
      continue;
    }
    if (!node(Entry.first).Quarantined)
      Bad.push_back("fault recorded for node '" + Name(node(Entry.first)) +
                    "' that is not flagged quarantined");
  }
  return Bad;
}

} // namespace alphonse
