//===- SessionManager.h - Multi-session incremental service -----*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The session service (DESIGN.md "Session service"): a SessionManager
/// multiplexes many isolated per-client runtimes over one shared worker
/// pool. Mutations mark their session dirty and enqueue it; a drain cycle
/// batches the dirty backlog, dispatches one serial drain task per
/// session onto the pool (cross-session concurrency, intra-session
/// serialism), and applies admission control per session by pumping under
/// ServiceConfig::SessionBudget — the session's own governor then
/// completes, degrades, defers, or sheds the wave exactly as a
/// single-tenant runtime would.
///
/// Threading model: one driver thread owns the manager (open/close/
/// mutate/drainCycle); pool workers own individual sessions only for the
/// duration of their drain task inside a cycle, with the cycle's
/// dispatch/wait pair ordering the handoff both ways. Nothing else is
/// shared, so the service needs no per-session locks.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_SERVICE_SESSIONMANAGER_H
#define ALPHONSE_SERVICE_SESSIONMANAGER_H

#include "service/ServiceStats.h"
#include "service/Session.h"
#include "support/ThreadPool.h"

#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace alphonse {

/// Tunables for one SessionManager.
struct ServiceConfig {
  /// Shared pool width: sessions drained concurrently per cycle. 0 drains
  /// inline on the driver thread (serial service, useful for tests and
  /// for the serial-vs-parallel equivalence sweep).
  unsigned Workers = 4;
  /// Per-session graph configuration.
  DepGraph::Config Graph;
  /// Per-session budget each drain-cycle wave runs under. The default is
  /// unlimited (every admitted session reaches quiescence each cycle);
  /// give it a deadline/step bound plus OverloadPolicy::Defer or Shed to
  /// get graceful degradation per session under overload.
  WaveBudget SessionBudget;
  /// Dirty-queue depth beyond which new enqueues are shed (the session
  /// stays dirty but is not queued; svc.waves_shed counts the refusal).
  /// 0 = unlimited. drainAll() ignores the cap when catching up.
  size_t MaxQueueDepth = 0;
};

/// Multiplexes isolated sessions over one shared worker pool.
class SessionManager {
public:
  explicit SessionManager(ServiceConfig Cfg = ServiceConfig());

  SessionManager(const SessionManager &) = delete;
  SessionManager &operator=(const SessionManager &) = delete;

  /// Opens a new session and returns it (owned by the manager).
  Session &open();

  /// Closes \p Id; \returns false when no such session exists. A dirty
  /// session is simply discarded — its pending work dies with it.
  bool close(Session::Id Id);

  /// Looks up an open session, or nullptr.
  Session *find(Session::Id Id);

  size_t openSessions() const { return Sessions.size(); }
  size_t queueDepth() const { return DirtyQ.size(); }

  /// Applies \p F to session \p Id on the calling (driver) thread and
  /// marks it dirty; \returns false when the session does not exist.
  /// \p F receives the Session and performs the embedding-level edits
  /// (set a cell, write a variable) without pumping — propagation belongs
  /// to the next drain cycle.
  template <typename Fn> bool mutate(Session::Id Id, Fn &&F) {
    Session *S = find(Id);
    if (!S)
      return false;
    std::forward<Fn>(F)(*S);
    markDirty(*S);
    return true;
  }

  /// Marks \p S dirty and enqueues it for the next drain cycle (subject
  /// to MaxQueueDepth shedding). Call after mutating a session's runtime
  /// directly, skipping mutate().
  void markDirty(Session &S);

  /// Runs one batched drain cycle: takes the current dirty queue,
  /// dispatches one per-session drain task onto the pool (each pumping
  /// under SessionBudget), waits for the batch, then re-queues sessions
  /// whose wave was cancelled mid-drain (degraded — they still hold
  /// parked work). Deferred/shed sessions stay dirty but are not
  /// re-queued: re-running them next cycle would spin without an
  /// unbounded catch-up, which is drainAll()'s job. \returns the number
  /// of sessions that reached quiescence this cycle.
  size_t drainCycle();

  /// Catch-up: sweeps every dirty session (queued or not, ignoring
  /// MaxQueueDepth) and drains in unbounded cycles until none is dirty.
  /// \p MaxCycles bounds the loop (0 = until clean). \returns sessions
  /// drained to quiescence.
  size_t drainAll(size_t MaxCycles = 0);

  ServiceStats &stats() { return Stats; }
  const ServiceStats &stats() const { return Stats; }

private:
  /// One drain wave for \p S under \p B. Runs on a pool worker (or
  /// inline).
  void drainOne(Session &S, const WaveBudget &B);

  /// Drain cycle over whatever is queued, pumping under \p B.
  size_t drainCycleUnder(const WaveBudget &B);

  void enqueue(Session &S);

  ServiceConfig Cfg;
  ThreadPool Pool;
  std::unordered_map<Session::Id, std::unique_ptr<Session>> Sessions;
  std::deque<Session *> DirtyQ;
  ServiceStats Stats;
  Session::Id NextId = 1;
};

} // namespace alphonse

#endif // ALPHONSE_SERVICE_SESSIONMANAGER_H
