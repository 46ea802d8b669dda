//===- Session.h - One isolated incremental session -------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One client session of the session service (DESIGN.md "Session
/// service"): a private Runtime — its own dependency graph, governor, and
/// statistics — plus an optional embedded program (a Spreadsheet, an
/// interpreted Alphonse-L module, any object built over the session's
/// Runtime). Sessions share nothing: isolation between clients is by
/// construction, not by locking, and the only shared resource is the
/// manager's worker pool that drains them.
///
/// Like every graph, a session's runtime is single-threaded: concurrency
/// in the service comes from draining many sessions at once, one pool
/// task each, and one session is drained by one task at a time.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_SERVICE_SESSION_H
#define ALPHONSE_SERVICE_SESSION_H

#include "core/Runtime.h"
#include "support/Budget.h"

#include <cstdint>
#include <memory>
#include <utility>

namespace alphonse {

class SessionManager;

/// One isolated client runtime multiplexed by a SessionManager.
class Session {
public:
  using Id = uint64_t;

  Id id() const { return Sid; }

  /// The session's private runtime. Mutations must go through
  /// SessionManager::mutate() (or be followed by markDirty()) so the
  /// manager knows to schedule a drain.
  Runtime &runtime() { return RT; }
  const Runtime &runtime() const { return RT; }

  /// Constructs the session's program object in place (e.g. a
  /// Spreadsheet bound to runtime()), replacing any previous one. The
  /// session owns it; it dies with the session, before the runtime.
  template <typename T, typename... Args> T &emplaceProgram(Args &&...A) {
    std::shared_ptr<T> P = std::make_shared<T>(std::forward<Args>(A)...);
    T &Ref = *P;
    Program = std::move(P);
    return Ref;
  }

  /// The embedded program, or nullptr when none was emplaced. The caller
  /// asserts the type: the manager is program-agnostic.
  template <typename T> T *program() {
    return static_cast<T *>(Program.get());
  }

  /// True when the session has un-drained mutations.
  bool dirty() const { return Dirty; }

  /// How the session's most recent drain wave ended.
  WaveOutcome lastOutcome() const { return LastOutcome; }

  /// Drain waves run for this session (admitted ones, including degraded).
  uint64_t waves() const { return Waves; }

  /// Enqueue-to-completion latency of the last admitted wave, in
  /// microseconds.
  uint64_t lastWaveUs() const { return LastUs; }

private:
  friend class SessionManager;

  Session(Id Sid, const DepGraph::Config &Cfg)
      : Sid(Sid), RT(Cfg) {}

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  Id Sid;
  /// Declared before Program: the program references the runtime and must
  /// be destroyed first.
  Runtime RT;
  std::shared_ptr<void> Program;

  // Manager bookkeeping (all driver-thread-owned except during a drain
  // task, which owns the session exclusively for its duration).
  bool Dirty = false;
  bool InQueue = false;
  /// The last drain wave threw out of the pump (rare: graph faults are
  /// normally quarantined, not thrown).
  bool Faulted = false;
  uint64_t EnqueuedAtUs = 0;
  WaveOutcome LastOutcome = WaveOutcome::Completed;
  uint64_t Waves = 0;
  uint64_t LastUs = 0;
};

} // namespace alphonse

#endif // ALPHONSE_SERVICE_SESSION_H
