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
/// Counters are sharded per worker thread (DESIGN.md "Parallel
/// propagation"): each pool worker owns one cache-line-padded slot it
/// updates with plain load/store pairs (no contended read-modify-write),
/// and reads merge the slots. Shard ids are pool-scoped — every ThreadPool
/// numbers its own workers 1..kStatShards-1 — so any number of pools can
/// coexist without starving each other of shards. The ownership rule that
/// makes the load/store slots sound: at most one pool's workers may update
/// a given Statistics block at a time (each pool drains its own graphs).
/// Slot 0 is different: it is shared by the main thread and every thread
/// without a shard, so it is updated with fetch_add — concurrent shard-0
/// writers (e.g. session drains running as tasks on a shared pool) never
/// lose increments.
///
/// Memory: the worker slots are allocated lazily per counter, the first
/// time a worker-shard thread bumps it. A counter only ever touched from
/// shard 0 — every counter of a serially-drained session runtime — costs
/// 16 bytes instead of a kStatShards-sized padded array, which is what
/// makes tens of thousands of per-session Statistics blocks affordable
/// (DESIGN.md "Session service").
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_SUPPORT_STATISTICS_H
#define ALPHONSE_SUPPORT_STATISTICS_H

#include <atomic>
#include <cstdint>
#include <ostream>

namespace alphonse {

/// Shard budget: slot 0 is the main thread (and every thread without a
/// shard); slots 1..kStatShards-1 are handed to a pool's worker threads by
/// ThreadPool, bounding the per-pool concurrent worker count.
inline constexpr unsigned kStatShards = 17;

namespace detail {
/// The calling thread's counter slot. 0 outside worker threads.
inline thread_local unsigned StatShard = 0;
} // namespace detail

/// The calling thread's statistics/evaluator shard id.
inline unsigned statShardId() { return detail::StatShard; }

/// RAII override of the calling thread's shard id. The session service
/// uses StatShardScope(0) around a per-session serial drain running on a
/// pool worker: the session's counters then land in the (fetch_add,
/// multi-writer-safe) slot 0 instead of lazily allocating worker-slot
/// blocks in every session's Statistics.
class StatShardScope {
public:
  explicit StatShardScope(unsigned Shard) : Saved(detail::StatShard) {
    detail::StatShard = Shard;
  }
  ~StatShardScope() { detail::StatShard = Saved; }

  StatShardScope(const StatShardScope &) = delete;
  StatShardScope &operator=(const StatShardScope &) = delete;

private:
  unsigned Saved;
};

/// One sharded event counter. Converts implicitly to uint64_t (the merged
/// total), so call sites read and compare it like the plain integer it
/// used to be; ++/+= update only the calling thread's slot.
class StatCounter {
public:
  StatCounter() = default;

  StatCounter(uint64_t V) { Main.store(V, std::memory_order_relaxed); }

  StatCounter(const StatCounter &O) {
    Main.store(O.total(), std::memory_order_relaxed);
  }

  ~StatCounter() { delete Workers.load(std::memory_order_relaxed); }

  /// Copy-assignment merges the source into slot 0 (and zeroes the worker
  /// slots), so Statistics::reset() — a whole-struct assignment from a
  /// fresh Statistics — still zeroes everything.
  StatCounter &operator=(const StatCounter &O) {
    uint64_t T = O.total();
    zeroWorkerSlots();
    Main.store(T, std::memory_order_relaxed);
    return *this;
  }

  StatCounter &operator=(uint64_t V) {
    zeroWorkerSlots();
    Main.store(V, std::memory_order_relaxed);
    return *this;
  }

  StatCounter &operator++() {
    bump(1);
    return *this;
  }
  void operator++(int) { bump(1); }
  StatCounter &operator+=(uint64_t N) {
    bump(N);
    return *this;
  }

  /// Merged value across all shards.
  uint64_t total() const {
    uint64_t Sum = Main.load(std::memory_order_relaxed);
    if (const ShardBlock *B = Workers.load(std::memory_order_acquire))
      for (const Slot &S : B->Slots)
        Sum += S.V.load(std::memory_order_relaxed);
    return Sum;
  }

  operator uint64_t() const { return total(); }

private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> V{0};
  };
  /// Padded slots for shards 1..kStatShards-1, allocated on the first
  /// bump from a worker-shard thread.
  struct ShardBlock {
    Slot Slots[kStatShards - 1];
  };

  void bump(uint64_t N) {
    unsigned Shard = statShardId();
    if (Shard == 0) {
      // Slot 0 has any number of writers (the main thread, overflow
      // threads, session drains pinned to shard 0): a read-modify-write
      // load/store pair here loses increments, so it must be fetch_add.
      Main.fetch_add(N, std::memory_order_relaxed);
      return;
    }
    // Owner-exclusive worker slot: a plain load/store pair, not a
    // fetch_add — within the one pool allowed to drive this Statistics
    // block, no second thread ever writes this slot.
    std::atomic<uint64_t> &S = workerSlots().Slots[Shard - 1].V;
    S.store(S.load(std::memory_order_relaxed) + N, std::memory_order_relaxed);
  }

  /// The worker-slot block, allocated on first use (CAS-installed: racing
  /// workers agree on one block, losers free theirs).
  ShardBlock &workerSlots() {
    ShardBlock *B = Workers.load(std::memory_order_acquire);
    if (B)
      return *B;
    ShardBlock *Fresh = new ShardBlock();
    if (Workers.compare_exchange_strong(B, Fresh, std::memory_order_acq_rel))
      return *Fresh;
    delete Fresh; // Lost the race; B now holds the winner.
    return *B;
  }

  void zeroWorkerSlots() {
    if (ShardBlock *B = Workers.load(std::memory_order_relaxed))
      for (Slot &S : B->Slots)
        S.V.store(0, std::memory_order_relaxed);
  }

  /// Slot 0: the main thread and every unsharded thread (fetch_add).
  std::atomic<uint64_t> Main{0};
  std::atomic<ShardBlock *> Workers{nullptr};
};

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
  /// Worker threads of the propagation scheduler's pool (0 = serial).
  StatCounter PropWorkers;
  /// Partitions drained to quiescence by parallel wave workers.
  StatCounter PropPartitionsDrained;
  /// Executions abandoned because they touched a partition owned by a
  /// sibling worker (the partitions merge and the work is retried).
  StatCounter PropConflicts;
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
  /// Full checkpoint snapshots written (DESIGN.md §10).
  StatCounter CkptSnapshots;
  /// Delta records appended to checkpoint logs.
  StatCounter CkptDeltas;
  /// Sections written across all snapshots.
  StatCounter CkptSections;
  /// Bytes written durably (snapshots + delta records).
  StatCounter CkptBytesWritten;
  /// Checkpoint restores completed (snapshot load + delta replay + verify).
  StatCounter CkptRestores;
  /// Nodes rebuilt by restores.
  StatCounter CkptRestoredNodes;
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
  /// Capped-exponential backoff waits taken between conflicted retry
  /// waves.
  StatCounter GovBackoffWaits;

  /// Resets every counter to zero.
  void reset() { *this = Statistics(); }

  /// Live node count.
  uint64_t liveNodes() const { return NodesCreated - NodesDestroyed; }

  /// Live edge count.
  uint64_t liveEdges() const { return EdgesCreated - EdgesRemoved; }
};

/// Prints all counters (merged across shards), one per line, for debugging
/// and bench reports.
std::ostream &operator<<(std::ostream &OS, const Statistics &S);

} // namespace alphonse

#endif // ALPHONSE_SUPPORT_STATISTICS_H
