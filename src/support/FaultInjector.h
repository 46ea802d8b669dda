//===- FaultInjector.h - Deterministic fault injection ----------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic fault-injection harness for testing the runtime's
/// failure paths. Instrumented sites (Cell snapshot refreshes,
/// Maintained/Cached executions, interpreter procedure instances) call
/// faultInjectionPoint(site) at each recompute; an installed injector can
/// force a throw or a divergence (self-invalidation, as if the body wrote
/// storage it reads) at the Nth hit of a named site.
///
/// No injector is installed by default; the per-site cost is then a single
/// global pointer load. Install one for the current scope with
/// FaultInjector::Scope (tests only). Hit accounting is internally
/// locked, so instrumented sites may fire from session drains running on
/// several pool threads at once; arming/disarming must still happen while
/// nothing is draining (install the Scope before dispatching work).
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_SUPPORT_FAULTINJECTOR_H
#define ALPHONSE_SUPPORT_FAULTINJECTOR_H

#include "support/Budget.h"

#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>

namespace alphonse {

/// Thrown by an instrumented site when the active injector forces a throw.
class InjectedFault : public std::runtime_error {
public:
  explicit InjectedFault(const std::string &Site)
      : std::runtime_error("injected fault at site '" + Site + "'"),
        Site(Site) {}

  const std::string &site() const { return Site; }

private:
  std::string Site;
};

/// Per-site deterministic fault schedule.
class FaultInjector {
public:
  /// What an armed site does when its trigger count is reached.
  enum class Action : uint8_t {
    None,    ///< Site not armed (or trigger not yet reached).
    Throw,   ///< Throw InjectedFault from the site.
    Diverge, ///< Self-invalidate the executing node after its body runs.
    Kill,    ///< Terminate the process immediately (crash simulation).
    Tick,    ///< Advance the virtual governance clock by the site payload.
  };

  /// Arms \p Site to throw at its \p AtNthHit-th hit (1-based, counted
  /// from arming), for \p Times consecutive hits.
  void armThrow(std::string Site, uint64_t AtNthHit = 1, uint64_t Times = 1) {
    std::lock_guard<std::mutex> L(Mu);
    Sites[std::move(Site)] = {Action::Throw, AtNthHit, Times, 0};
  }

  /// Arms \p Site to diverge (re-execute forever until a limit trips)
  /// starting at its \p AtNthHit-th hit.
  void armDiverge(std::string Site, uint64_t AtNthHit = 1,
                  uint64_t Times = UINT64_MAX) {
    std::lock_guard<std::mutex> L(Mu);
    Sites[std::move(Site)] = {Action::Diverge, AtNthHit, Times, 0};
  }

  /// Arms \p Site to kill the process (std::_Exit, no cleanup — a
  /// faithful crash as far as the filesystem is concerned) at its
  /// \p AtNthHit-th hit. The crash-recovery harness arms this in a forked
  /// child to die between two durable-write steps.
  void armKill(std::string Site, uint64_t AtNthHit = 1) {
    std::lock_guard<std::mutex> L(Mu);
    Sites[std::move(Site)] = {Action::Kill, AtNthHit, 1, 0};
  }

  /// Arms \p Site to advance the virtual governance clock (GovClock) by
  /// \p AdvanceUs microseconds at each triggering hit, starting at the
  /// \p AtNthHit-th. The engine's budget checks hit the "gov.tick" site
  /// once per evaluation boundary while a deadline is armed, and every
  /// recompute site can tick too — so tests make a specific evaluation
  /// "take" an exact amount of virtual time, and deadline expiry becomes
  /// deterministic without a single real sleep. Meaningful only under a
  /// GovClock::VirtualScope (advance() is a no-op on the real clock).
  void armTick(std::string Site, uint64_t AdvanceUs, uint64_t AtNthHit = 1,
               uint64_t Times = UINT64_MAX) {
    std::lock_guard<std::mutex> L(Mu);
    Sites[std::move(Site)] = {Action::Tick, AtNthHit, Times, 0, AdvanceUs};
  }

  /// Disarms \p Site (its hit count is discarded).
  void disarm(const std::string &Site) {
    std::lock_guard<std::mutex> L(Mu);
    Sites.erase(Site);
  }

  /// Times \p Site was hit since it was armed.
  uint64_t hitCount(const std::string &Site) const {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Sites.find(Site);
    return It == Sites.end() ? 0 : It->second.Hits;
  }

  /// Records a hit of \p Site and returns the action to take. Never
  /// throws; the instrumented site performs the action itself. Safe to
  /// call from several threads at once.
  Action hit(std::string_view Site) {
    uint64_t PayloadUs = 0;
    return hit(Site, PayloadUs);
  }

  /// As hit(), also returning the site's payload (the Tick advance) for
  /// actions that carry one.
  Action hit(std::string_view Site, uint64_t &PayloadUs) {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Sites.find(std::string(Site));
    if (It == Sites.end())
      return Action::None;
    State &S = It->second;
    ++S.Hits;
    // Subtraction form avoids overflow when Times is UINT64_MAX (the
    // armDiverge default, "diverge forever").
    if (S.Hits < S.TriggerAt || S.Hits - S.TriggerAt >= S.Times)
      return Action::None;
    ++Fired;
    PayloadUs = S.PayloadUs;
    return S.Act;
  }

  /// Total actions fired across all sites.
  uint64_t firedCount() const {
    std::lock_guard<std::mutex> L(Mu);
    return Fired;
  }

  /// The injector consulted by faultInjectionPoint(), or nullptr.
  static FaultInjector *active() { return Active; }

  /// Installs an injector for the lifetime of the scope (RAII; scopes may
  /// nest, the innermost wins).
  class Scope {
  public:
    explicit Scope(FaultInjector &FI) : Prev(Active) { Active = &FI; }
    ~Scope() { Active = Prev; }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    FaultInjector *Prev;
  };

private:
  struct State {
    Action Act;
    uint64_t TriggerAt;
    uint64_t Times;
    uint64_t Hits;
    uint64_t PayloadUs = 0; ///< Tick: virtual-clock advance per firing.
  };

  static FaultInjector *Active;

  mutable std::mutex Mu;
  std::unordered_map<std::string, State> Sites;
  uint64_t Fired = 0;
};

/// The checkpoint instrumented sites call once per recompute. Throws
/// InjectedFault when the active injector forces a throw; returns
/// Action::Diverge when the site should self-invalidate after running;
/// returns Action::None otherwise (including when no injector is active).
inline FaultInjector::Action faultInjectionPoint(std::string_view Site) {
  FaultInjector *FI = FaultInjector::active();
  if (!FI)
    return FaultInjector::Action::None;
  uint64_t PayloadUs = 0;
  FaultInjector::Action A = FI->hit(Site, PayloadUs);
  if (A == FaultInjector::Action::Throw)
    throw InjectedFault(std::string(Site));
  if (A == FaultInjector::Action::Kill)
    std::_Exit(137); // No destructors, no atexit, no flushing: a crash.
  if (A == FaultInjector::Action::Tick) {
    // Virtual time passes at this site; the site itself takes no action.
    GovClock::advance(PayloadUs);
    return FaultInjector::Action::None;
  }
  return A;
}

} // namespace alphonse

#endif // ALPHONSE_SUPPORT_FAULTINJECTOR_H
