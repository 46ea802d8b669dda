//===- Governor.h - Wave resource governance --------------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resource governor of the propagation stack (DESIGN.md Section 11
/// "Resource governance and graceful degradation"). One Governor per
/// DepGraph holds the default WaveBudget, the per-wave cancellation latch
/// that drain loops and wave workers poll at evaluation boundaries, the
/// overload-admission decision, and the bookkeeping behind graceful
/// degradation: the list of nodes currently stamped stale, the residue
/// parked by the last cancelled wave, and the watchdog's strike counts.
/// These are side tables rather than node fields because only governed
/// waves ever touch them, and every node would pay for the fields.
///
/// The governor never touches graph structure itself — DepGraph drives it
/// from the drain loops (the only places with the step counter and memory
/// gauges in hand) and does the stamping/parking; the scheduler polls
/// cancelled() from wave workers and paces conflicted retries through
/// backoffWait().
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_GRAPH_GOVERNOR_H
#define ALPHONSE_GRAPH_GOVERNOR_H

#include "graph/Handle.h"
#include "support/Budget.h"
#include "support/Statistics.h"

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace alphonse {

/// Per-graph budget enforcement and degradation bookkeeping.
class Governor {
public:
  explicit Governor(Statistics &Stats) : Stats(Stats) {}

  Governor(const Governor &) = delete;
  Governor &operator=(const Governor &) = delete;

  /// The budget evaluateAll() applies when the caller passes none.
  /// Unlimited by default, which reproduces the classic run-to-quiescence
  /// engine exactly.
  void setDefaultBudget(const WaveBudget &B) { Default = B; }
  const WaveBudget &defaultBudget() const { return Default; }

  /// True between openWave() and closeWave().
  bool waveActive() const { return Active; }

  /// True when the current wave carries real bounds — the boundary-check
  /// hot path gates on this single bool, so unbudgeted waves pay nothing
  /// per step.
  bool checksOn() const { return ChecksNeeded; }

  /// Overload admission for a budgeted top-level wave: \returns false
  /// (recording a Deferred/Shed outcome) when the budget's policy skips
  /// the wave because a previous budgeted wave parked work it never
  /// finished. Unlimited budgets and Accept always run — an unbudgeted
  /// pump is how a parked backlog is guaranteed to drain.
  bool admitWave(const WaveBudget &B) {
    if (B.unlimited() || B.Policy == OverloadPolicy::Accept ||
        ParkedResidue == 0)
      return true;
    if (B.Policy == OverloadPolicy::Defer) {
      Last = WaveOutcome::Deferred;
      ++Stats.GovWavesDeferred;
    } else {
      Last = WaveOutcome::Shed;
      ++Stats.GovWavesShed;
    }
    return false;
  }

  /// Opens a wave under \p B. Called on the main thread before any worker
  /// dispatch, so the plain budget fields are safely published by the
  /// pool's queue mutex.
  void openWave(const WaveBudget &B) {
    Active = true;
    ChecksNeeded = !B.unlimited();
    Cur = B;
    StartUs = ChecksNeeded ? GovClock::nowUs() : 0;
    CancelFlag.store(false, std::memory_order_relaxed);
    CancelWhy.store(static_cast<uint8_t>(WaveOutcome::Completed),
                    std::memory_order_relaxed);
    ++Stats.GovWaves;
  }

  /// Evaluation-boundary budget check, callable from any drain loop
  /// (serial or wave worker). \returns true — latching the shared cancel
  /// flag — when any bound of the current wave is exhausted. Hits the
  /// "gov.tick" fault site first so virtual-clock tests advance time at
  /// exact step boundaries.
  bool checkBoundary(uint64_t StepsDone, uint64_t SlabBytes);

  /// True once some boundary check cancelled the current wave. Workers
  /// poll this before popping their next node.
  bool cancelled() const {
    return CancelFlag.load(std::memory_order_relaxed);
  }

  /// Closes the wave: computes the outcome from the cancel latch, records
  /// \p ParkedLeft as the parked residue (the resumable inconsistent
  /// sets), and updates the gov.* gauges. \returns the outcome.
  WaveOutcome closeWave(uint64_t ParkedLeft) {
    WaveOutcome O = WaveOutcome::Completed;
    if (CancelFlag.load(std::memory_order_relaxed))
      O = static_cast<WaveOutcome>(CancelWhy.load(std::memory_order_relaxed));
    if (waveDegraded(O))
      ++Stats.GovWavesDegraded;
    Active = false;
    ChecksNeeded = false;
    Last = O;
    ParkedResidue = ParkedLeft;
    Stats.GovParkedNodes = ParkedLeft;
    return O;
  }

  /// Outcome of the most recent wave (admission skips included).
  WaveOutcome lastOutcome() const { return Last; }

  /// True while the engine is serving degraded results: stale-stamped
  /// nodes exist or a cancelled wave's residue is still parked.
  bool degraded() const {
    return ParkedResidue != 0 || StaleCount.load(std::memory_order_relaxed) != 0;
  }

  /// Nodes currently stamped stale.
  uint64_t staleCount() const {
    return StaleCount.load(std::memory_order_relaxed);
  }

  /// Pending nodes parked by the last cancelled wave.
  uint64_t parkedResidue() const { return ParkedResidue; }

  /// True when the current wave has a wall-clock deadline (gates the
  /// watchdog's per-evaluation timing).
  bool deadlineActive() const {
    return ChecksNeeded && Cur.DeadlineUs != 0;
  }

  /// The current wave's deadline bound, in microseconds (0 = none).
  uint64_t currentDeadlineUs() const {
    return ChecksNeeded ? Cur.DeadlineUs : 0;
  }

  /// Microseconds left before the current wave's deadline (UINT64_MAX
  /// when no deadline is armed).
  uint64_t remainingDeadlineUs() const {
    if (!deadlineActive())
      return UINT64_MAX;
    uint64_t Elapsed = GovClock::nowUs() - StartUs;
    return Elapsed >= Cur.DeadlineUs ? 0 : Cur.DeadlineUs - Elapsed;
  }

  /// Sleeps \p Us microseconds (capped at the remaining deadline) between
  /// conflicted retry waves. On the virtual clock this advances time
  /// instead of sleeping, so backoff stays deterministic in tests.
  void backoffWait(uint64_t Us);

private:
  friend class DepGraph;

  /// Sets the shared cancel flag (first latch wins the reason) and always
  /// returns true so boundary checks can tail-call it.
  bool latchCancel(WaveOutcome Why);

  Statistics &Stats;
  WaveBudget Default;

  // Current-wave state. The plain fields are written by the main thread
  // in openWave() before any worker dispatch and read-only during the
  // wave; the atomics are the worker-shared cancel latch.
  bool Active = false;
  bool ChecksNeeded = false;
  WaveBudget Cur;
  uint64_t StartUs = 0;
  std::atomic<bool> CancelFlag{false};
  std::atomic<uint8_t> CancelWhy{0};

  WaveOutcome Last = WaveOutcome::Completed;
  uint64_t ParkedResidue = 0;

  /// Nodes stamped stale by cancelled waves (DepGraph maintains both; the
  /// count is atomic because drain workers clear marks as they repair
  /// nodes mid-wave).
  std::vector<NodeId> StaleList;
  std::atomic<uint64_t> StaleCount{0};

  /// Watchdog strikes by node: the consecutive evaluations of the node
  /// that each consumed an entire wave deadline (quarantined at
  /// Config::WatchdogTrips; a clean evaluation erases the entry).
  /// DepGraph maintains it under the graph's state lock.
  std::unordered_map<NodeId, uint32_t> Strikes;
};

} // namespace alphonse

#endif // ALPHONSE_GRAPH_GOVERNOR_H
