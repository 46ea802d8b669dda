//===- Governor.cpp - Wave resource governance ----------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "graph/Governor.h"

#include "support/FaultInjector.h"

namespace alphonse {

bool Governor::checkBoundary(uint64_t StepsDone, uint64_t SlabBytes) {
  // Virtual time passes at step boundaries: with a Tick armed on
  // "gov.tick", each boundary advances the virtual clock by a fixed
  // amount, making "the deadline expires at step N" an exact statement.
  faultInjectionPoint("gov.tick");
  if (Cur.StepBudget != 0 && StepsDone >= Cur.StepBudget) {
    ++Stats.GovStepBudgetHits;
    return latchCancel(WaveOutcome::DegradedSteps);
  }
  if (Cur.MemCeilingBytes != 0 && SlabBytes > Cur.MemCeilingBytes) {
    ++Stats.GovMemCeilingHits;
    return latchCancel(WaveOutcome::DegradedMemory);
  }
  if (Cur.DeadlineUs != 0 && GovClock::nowUs() - StartUs >= Cur.DeadlineUs) {
    ++Stats.GovDeadlineExpired;
    return latchCancel(WaveOutcome::DegradedDeadline);
  }
  return false;
}

bool Governor::latchCancel(WaveOutcome Why) {
  if (!CancelFlag) {
    CancelFlag = true;
    CancelWhy = Why;
  }
  return true;
}

} // namespace alphonse
