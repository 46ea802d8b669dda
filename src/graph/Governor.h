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
/// that the drain loop polls at evaluation boundaries, the
/// overload-admission decision, and the bookkeeping behind graceful
/// degradation: the list of nodes currently stamped stale, the residue
/// parked by the last cancelled wave, and the watchdog's strike counts.
/// These are side tables rather than node fields because only governed
/// waves ever touch them, and every node would pay for the fields.
///
/// The governor never touches graph structure itself — DepGraph drives it
/// from the drain loop (the only place with the step counter and memory
/// gauges in hand) and does the stamping/parking.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_GRAPH_GOVERNOR_H
#define ALPHONSE_GRAPH_GOVERNOR_H

#include "graph/Handle.h"
#include "support/Budget.h"
#include "support/Statistics.h"

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

  /// Opens a wave under \p B.
  void openWave(const WaveBudget &B) {
    Active = true;
    ChecksNeeded = !B.unlimited();
    Cur = B;
    StartUs = ChecksNeeded ? GovClock::nowUs() : 0;
    CancelFlag = false;
    CancelWhy = WaveOutcome::Completed;
    ++Stats.GovWaves;
  }

  /// Evaluation-boundary budget check, callable from any drain loop.
  /// \returns true — latching the cancel flag — when any bound of the
  /// current wave is exhausted. Hits the "gov.tick" fault site first so
  /// virtual-clock tests advance time at exact step boundaries.
  bool checkBoundary(uint64_t StepsDone, uint64_t SlabBytes);

  /// True once some boundary check cancelled the current wave.
  bool cancelled() const { return CancelFlag; }

  /// Closes the wave: computes the outcome from the cancel latch, records
  /// \p ParkedLeft as the parked residue (the resumable inconsistent
  /// sets), and updates the gov.* gauges. \returns the outcome.
  WaveOutcome closeWave(uint64_t ParkedLeft) {
    WaveOutcome O = CancelFlag ? CancelWhy : WaveOutcome::Completed;
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
  bool degraded() const { return ParkedResidue != 0 || StaleCount != 0; }

  /// Nodes currently stamped stale.
  uint64_t staleCount() const { return StaleCount; }

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

private:
  friend class DepGraph;

  /// Sets the cancel flag (the first latch wins the reason) and always
  /// returns true so boundary checks can tail-call it.
  bool latchCancel(WaveOutcome Why);

  Statistics &Stats;
  WaveBudget Default;

  // Current-wave state, set by openWave().
  bool Active = false;
  bool ChecksNeeded = false;
  WaveBudget Cur;
  uint64_t StartUs = 0;
  bool CancelFlag = false;
  WaveOutcome CancelWhy = WaveOutcome::Completed;

  WaveOutcome Last = WaveOutcome::Completed;
  uint64_t ParkedResidue = 0;

  /// Nodes stamped stale by cancelled waves, and how many of them are
  /// still stale (DepGraph maintains both; it clears marks as it repairs
  /// nodes mid-wave).
  std::vector<NodeId> StaleList;
  uint64_t StaleCount = 0;

  /// Watchdog strikes by node: the consecutive evaluations of the node
  /// that each consumed an entire wave deadline (quarantined at
  /// Config::WatchdogTrips; a clean evaluation erases the entry).
  std::unordered_map<NodeId, uint32_t> Strikes;
};

} // namespace alphonse

#endif // ALPHONSE_GRAPH_GOVERNOR_H
