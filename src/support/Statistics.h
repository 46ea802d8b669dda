//===- Statistics.h - Runtime counters --------------------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters for the incremental runtime. The paper's Section 9 analysis is
/// phrased in terms of nodes, edges, and (re-)executions; tests and
/// benchmarks read these counters to check the claimed asymptotic shapes
/// (experiments E7, E8, E11 in DESIGN.md).
///
/// A Statistics block belongs to one Runtime, and one thread at a time
/// drives a Runtime's graph (the session service hands a session to one
/// pool task at a time; DESIGN.md "Session service"), so every counter is
/// a plain integer.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_SUPPORT_STATISTICS_H
#define ALPHONSE_SUPPORT_STATISTICS_H

#include <cstdint>
#include <ostream>

namespace alphonse {

/// One event counter: a plain 64-bit integer that converts implicitly to
/// uint64_t, so call sites read and compare it like one. total() names the
/// value explicitly.
class StatCounter {
public:
  StatCounter() = default;
  StatCounter(uint64_t V) : V(V) {}

  StatCounter &operator++() {
    ++V;
    return *this;
  }
  void operator++(int) { ++V; }
  StatCounter &operator+=(uint64_t N) {
    V += N;
    return *this;
  }

  uint64_t total() const { return V; }
  operator uint64_t() const { return V; }

private:
  uint64_t V = 0;
};
static_assert(sizeof(StatCounter) == 8, "a counter is one plain uint64_t");

/// Aggregate event counters maintained by one Runtime instance.
struct Statistics {
  /// Dependency-graph nodes ever created (storage + procedure instances).
  StatCounter NodesCreated;
  /// Dependency-graph nodes destroyed.
  StatCounter NodesDestroyed;
  /// Dependency edges created.
  StatCounter EdgesCreated;
  /// Dependency edges removed (retraction before re-execution, or node
  /// destruction).
  StatCounter EdgesRemoved;
  /// Edge creations skipped because an identical edge was already recorded
  /// during the current execution of the dependent procedure.
  StatCounter EdgesDeduped;
  /// Executions of incremental procedure instances (first runs and re-runs).
  StatCounter ProcExecutions;
  /// Calls answered from the cache without executing the procedure body.
  StatCounter CacheHits;
  /// Storage writes that were tracked (the modify() transformation ran on a
  /// location with a dependency-graph node).
  StatCounter TrackedWrites;
  /// Tracked writes suppressed because the new value equaled the cached one
  /// (variable-level quiescence, Algorithm 4).
  StatCounter QuiescentWrites;
  /// Nodes popped from inconsistent sets by the evaluator.
  StatCounter EvalSteps;
  /// Propagations that stopped because a recomputed value matched the cached
  /// value (quiescence cutoff, Section 2).
  StatCounter QuiescenceCutoffs;
  /// Union-find unions performed by the partition manager.
  StatCounter PartitionUnions;
  /// Evaluations that were scoped to a single partition (Section 6.3).
  StatCounter PartitionScopedEvals;
  /// Nodes moved to the quarantine set (threw, diverged, or cycled).
  StatCounter NodesQuarantined;
  /// Quarantined nodes explicitly returned to service.
  StatCounter QuarantineResets;
  /// Nodes that tripped Config::MaxReexecutions in one propagation.
  StatCounter DivergenceTrips;
  /// Re-entrant call chains that tripped Config::MaxReentrantDepth.
  StatCounter CycleFaults;
  /// Propagations aborted by Config::EvalStepLimit.
  StatCounter StepLimitTrips;
  /// Transactional batches opened (DepGraph::beginBatch).
  StatCounter TxnBegun;
  /// Batches whose commit succeeded (quiescence reached, no new faults).
  StatCounter TxnCommitted;
  /// Batches rolled back — explicitly or by an aborted commit.
  StatCounter TxnRolledBack;
  /// Undo-journal entries recorded across all batches.
  StatCounter TxnUndoEntries;
  /// Edge allocations served from the free-list pool instead of the arena.
  StatCounter EdgeReuse;
  /// Bytes reserved by the node table's slab and free list
  /// (back-pointers + generations; gauge, updated when the table grows).
  StatCounter GraphNodeBytes;
  /// Bytes reserved by the edge table's slab and free list (24-byte
  /// packed edges + generations; gauge, updated when the table grows).
  StatCounter GraphEdgeBytes;
  /// High-water mark of total graph slab bytes (nodes + edges; gauge).
  /// Resettable per Runtime (resetPoolHighWater) so a bench can scope the
  /// mark to a churn phase.
  StatCounter PoolHighWater;
  /// No longer incremented; kept only because perfbench reads it.
  StatCounter StaticCalls;
  StatCounter PropPartitionsDrained;
  StatCounter PropConflicts;
  StatCounter CkptRestoredNodes;
  /// Full checkpoint snapshots written (DESIGN.md §10).
  StatCounter CkptSnapshots;
  /// Delta records appended to checkpoint logs.
  StatCounter CkptDeltas;
  /// Bytes written durably (snapshots + delta records).
  StatCounter CkptBytesWritten;
  /// Checkpoint restores completed (snapshot load + delta replay).
  StatCounter CkptRestores;
  /// Microseconds spent in completed restores.
  StatCounter CkptRestoreMicros;
  /// Governed propagation waves opened (budgeted or not; DESIGN.md §11).
  StatCounter GovWaves;
  /// Waves cancelled by their budget (deadline, steps, or memory).
  StatCounter GovWavesDegraded;
  /// Waves skipped by OverloadPolicy::Defer over a parked backlog.
  StatCounter GovWavesDeferred;
  /// Waves skipped by OverloadPolicy::Shed over a parked backlog.
  StatCounter GovWavesShed;
  /// Boundary checks that saw the wall-clock deadline expired.
  StatCounter GovDeadlineExpired;
  /// Boundary checks that saw the evaluation-step budget exhausted.
  StatCounter GovStepBudgetHits;
  /// Boundary checks that saw the slab-memory ceiling crossed.
  StatCounter GovMemCeilingHits;
  /// Nodes parked in inconsistent sets when the last wave closed (gauge).
  StatCounter GovParkedNodes;
  /// Nodes currently stamped stale — their cached values predate the last
  /// quiescent state (gauge).
  StatCounter GovStaleNodes;
  /// Total stale stamps applied across all cancelled waves (a node
  /// re-stamped by a later wave counts again).
  StatCounter GovNodesStamped;
  /// Single evaluations that consumed an entire wave deadline by
  /// themselves (watchdog accounting).
  StatCounter GovDeadlineBlows;
  /// Nodes quarantined by the watchdog for blowing the deadline
  /// Config::WatchdogTrips times.
  StatCounter GovWatchdogQuarantines;

  /// Resets every counter to zero.
  void reset() { *this = Statistics(); }

  /// Live node count.
  uint64_t liveNodes() const { return NodesCreated - NodesDestroyed; }

  /// Live edge count.
  uint64_t liveEdges() const { return EdgesCreated - EdgesRemoved; }
};

/// Prints the counters, one per line, for debugging and bench reports.
std::ostream &operator<<(std::ostream &OS, const Statistics &S);

} // namespace alphonse

#endif // ALPHONSE_SUPPORT_STATISTICS_H
