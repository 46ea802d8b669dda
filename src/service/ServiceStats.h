//===- ServiceStats.h - Session-service counters ----------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Service-level counters for the session manager (DESIGN.md "Session
/// service"), the svc.* companion to the per-runtime Statistics block each
/// session already carries. The counters and the latency histogram are
/// only touched from the manager's driver thread.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_SERVICE_SERVICESTATS_H
#define ALPHONSE_SERVICE_SERVICESTATS_H

#include "service/LatencyHistogram.h"
#include "support/Statistics.h"

#include <ostream>

namespace alphonse {

/// Aggregate counters for one SessionManager.
struct ServiceStats {
  /// Sessions ever opened.
  StatCounter SessionsOpened;
  /// Sessions closed.
  StatCounter SessionsClosed;
  /// Mutations applied through mutate()/markDirty().
  StatCounter Mutations;
  /// Batched drain cycles run (each amortizes many sessions' edits).
  StatCounter DrainCycles;
  /// Per-session waves admitted and dispatched by drain cycles.
  StatCounter WavesAdmitted;
  /// Waves that ran but were cancelled by the per-session budget (the
  /// session re-queues and catches up in a later cycle).
  StatCounter WavesDegraded;
  /// Waves the per-session governor skipped (OverloadPolicy::Defer over a
  /// parked backlog).
  StatCounter WavesDeferred;
  /// Waves refused outright: by the per-session governor under
  /// OverloadPolicy::Shed, or by the manager when the dirty queue was
  /// over ServiceConfig::MaxQueueDepth.
  StatCounter WavesShed;
  /// Waves that ended in a fault (the session's graph quarantined work or
  /// the drain threw); the session is re-queued.
  StatCounter WavesFaulted;
  /// High-water mark of the dirty-queue depth (gauge).
  StatCounter QueuePeak;

  /// Dirty-enqueue-to-wave-completion latency of admitted waves.
  LatencyHistogram WaveLatency;

  /// Sessions currently open.
  uint64_t openSessions() const { return SessionsOpened - SessionsClosed; }

  void reset() { *this = ServiceStats(); }
};

/// Prints all svc.* counters plus the latency quantiles, one per line.
std::ostream &operator<<(std::ostream &OS, const ServiceStats &S);

} // namespace alphonse

#endif // ALPHONSE_SERVICE_SERVICESTATS_H
