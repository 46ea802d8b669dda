//===- Statistics.cpp - Runtime counters ----------------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Statistics.h"

namespace alphonse {

std::ostream &operator<<(std::ostream &OS, const Statistics &S) {
  OS << "nodes.created        " << S.NodesCreated.total() << '\n'
     << "nodes.destroyed      " << S.NodesDestroyed.total() << '\n'
     << "edges.created        " << S.EdgesCreated.total() << '\n'
     << "edges.removed        " << S.EdgesRemoved.total() << '\n'
     << "edges.deduped        " << S.EdgesDeduped.total() << '\n'
     << "proc.executions      " << S.ProcExecutions.total() << '\n'
     << "proc.cacheHits       " << S.CacheHits.total() << '\n'
     << "writes.tracked       " << S.TrackedWrites.total() << '\n'
     << "writes.quiescent     " << S.QuiescentWrites.total() << '\n'
     << "eval.steps           " << S.EvalSteps.total() << '\n'
     << "eval.cutoffs         " << S.QuiescenceCutoffs.total() << '\n'
     << "partition.unions     " << S.PartitionUnions.total() << '\n'
     << "partition.scopedEval " << S.PartitionScopedEvals.total() << '\n'
     << "fault.quarantined    " << S.NodesQuarantined.total() << '\n'
     << "fault.resets         " << S.QuarantineResets.total() << '\n'
     << "fault.divergence     " << S.DivergenceTrips.total() << '\n'
     << "fault.cycles         " << S.CycleFaults.total() << '\n'
     << "fault.stepLimit      " << S.StepLimitTrips.total() << '\n'
     << "txn.begun            " << S.TxnBegun.total() << '\n'
     << "txn.committed        " << S.TxnCommitted.total() << '\n'
     << "txn.rolledBack       " << S.TxnRolledBack.total() << '\n'
     << "txn.undoEntries      " << S.TxnUndoEntries.total() << '\n'
     << "pool.edge_reuse      " << S.EdgeReuse.total() << '\n'
     << "graph.node_bytes     " << S.GraphNodeBytes.total() << '\n'
     << "graph.edge_bytes     " << S.GraphEdgeBytes.total() << '\n'
     << "pool.high_water      " << S.PoolHighWater.total() << '\n'
     << "ckpt.snapshots       " << S.CkptSnapshots.total() << '\n'
     << "ckpt.deltas          " << S.CkptDeltas.total() << '\n'
     << "ckpt.bytes_written   " << S.CkptBytesWritten.total() << '\n'
     << "ckpt.restores        " << S.CkptRestores.total() << '\n'
     << "ckpt.restore_micros  " << S.CkptRestoreMicros.total() << '\n'
     << "gov.waves            " << S.GovWaves.total() << '\n'
     << "gov.waves_degraded   " << S.GovWavesDegraded.total() << '\n'
     << "gov.waves_deferred   " << S.GovWavesDeferred.total() << '\n'
     << "gov.waves_shed       " << S.GovWavesShed.total() << '\n'
     << "gov.deadline_expired " << S.GovDeadlineExpired.total() << '\n'
     << "gov.step_budget_hits " << S.GovStepBudgetHits.total() << '\n'
     << "gov.mem_ceiling_hits " << S.GovMemCeilingHits.total() << '\n'
     << "gov.parked           " << S.GovParkedNodes.total() << '\n'
     << "gov.stale_nodes      " << S.GovStaleNodes.total() << '\n'
     << "gov.nodes_stamped    " << S.GovNodesStamped.total() << '\n'
     << "gov.deadline_blows   " << S.GovDeadlineBlows.total() << '\n'
     << "gov.watchdog_quarantined " << S.GovWatchdogQuarantines.total() << '\n';
  return OS;
}

} // namespace alphonse
