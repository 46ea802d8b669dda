//===- SessionManager.cpp - Multi-session incremental service -------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "service/SessionManager.h"

#include "support/Budget.h"

namespace alphonse {

SessionManager::SessionManager(ServiceConfig C)
    : Cfg(std::move(C)), Pool(Cfg.Workers) {}

Session &SessionManager::open() {
  Session::Id Id = NextId++;
  std::unique_ptr<Session> S(new Session(Id, Cfg.Graph));
  Session &Ref = *S;
  Sessions.emplace(Id, std::move(S));
  ++Stats.SessionsOpened;
  return Ref;
}

bool SessionManager::close(Session::Id Id) {
  auto It = Sessions.find(Id);
  if (It == Sessions.end())
    return false;
  if (It->second->InQueue)
    for (auto Q = DirtyQ.begin(); Q != DirtyQ.end(); ++Q)
      if (*Q == It->second.get()) {
        DirtyQ.erase(Q);
        break;
      }
  Sessions.erase(It);
  ++Stats.SessionsClosed;
  return true;
}

Session *SessionManager::find(Session::Id Id) {
  auto It = Sessions.find(Id);
  return It == Sessions.end() ? nullptr : It->second.get();
}

void SessionManager::markDirty(Session &S) {
  ++Stats.Mutations;
  S.Dirty = true;
  if (S.InQueue)
    return;
  if (Cfg.MaxQueueDepth != 0 && DirtyQ.size() >= Cfg.MaxQueueDepth) {
    // Admission control at the service edge: over the depth cap the
    // enqueue itself is refused. The session stays dirty (its edits are
    // applied, its values just go stale) until a later markDirty finds
    // room or drainAll() catches up.
    ++Stats.WavesShed;
    return;
  }
  enqueue(S);
}

void SessionManager::enqueue(Session &S) {
  S.InQueue = true;
  S.EnqueuedAtUs = GovClock::nowUs();
  DirtyQ.push_back(&S);
  if (DirtyQ.size() > Stats.QueuePeak.total())
    Stats.QueuePeak = DirtyQ.size();
}

size_t SessionManager::drainCycle() { return drainCycleUnder(Cfg.SessionBudget); }

size_t SessionManager::drainCycleUnder(const WaveBudget &B) {
  if (DirtyQ.empty())
    return 0;
  ++Stats.DrainCycles;

  // Take the whole backlog as one batch: small edits from many sessions
  // amortize into one dispatch/wait round trip on the shared pool.
  std::vector<Session *> Batch(DirtyQ.begin(), DirtyQ.end());
  DirtyQ.clear();

  for (Session *S : Batch) {
    ++Stats.WavesAdmitted;
    Pool.run([this, S, &B] { drainOne(*S, B); });
  }
  Pool.wait();

  // Post-wave accounting on the driver thread (the histogram and the
  // re-queue decisions are single-writer by design).
  size_t Quiescent = 0;
  for (Session *S : Batch) {
    S->InQueue = false;
    if (S->Faulted) {
      ++Stats.WavesFaulted;
      continue; // Stays dirty; drainAll() or the next mutation retries.
    }
    switch (S->LastOutcome) {
    case WaveOutcome::Completed:
      S->Dirty = false;
      Stats.WaveLatency.record(S->LastUs);
      ++Quiescent;
      break;
    case WaveOutcome::DegradedDeadline:
    case WaveOutcome::DegradedSteps:
    case WaveOutcome::DegradedMemory:
      // The wave ran and was cancelled by its budget: parked residue
      // remains, so the session goes straight back in the queue — each
      // successive wave makes budgeted progress.
      ++Stats.WavesDegraded;
      Stats.WaveLatency.record(S->LastUs);
      enqueue(*S);
      break;
    case WaveOutcome::Deferred:
      // The governor skipped the wave over the parked backlog. Under a
      // Defer/Shed policy a budgeted cycle will never clear that
      // backlog, so re-queueing would spin; the session stays dirty for
      // drainAll()'s unbounded catch-up.
      ++Stats.WavesDeferred;
      break;
    case WaveOutcome::Shed:
      ++Stats.WavesShed;
      break;
    }
  }
  return Quiescent;
}

size_t SessionManager::drainAll(size_t MaxCycles) {
  size_t Drained = 0;
  for (size_t Cycle = 0; MaxCycles == 0 || Cycle < MaxCycles; ++Cycle) {
    // Sweep in dirty-but-unqueued sessions (deferred, shed, or faulted
    // leftovers), ignoring the depth cap: this is the catch-up path.
    for (auto &Entry : Sessions) {
      Session &S = *Entry.second;
      if (S.Dirty && !S.InQueue) {
        S.Faulted = false; // One retry per catch-up cycle.
        enqueue(S);
      }
    }
    if (DirtyQ.empty())
      break;
    // Unbounded accept-policy waves: every admitted session reaches
    // quiescence unless it faults again.
    size_t Got = drainCycleUnder(WaveBudget());
    Drained += Got;
    if (Got == 0)
      break; // Only faulting sessions remain; give up rather than spin.
  }
  return Drained;
}

void SessionManager::drainOne(Session &S, const WaveBudget &B) {
  S.Faulted = false;
  try {
    S.LastOutcome = S.RT.pump(B);
  } catch (...) {
    S.Faulted = true;
  }
  ++S.Waves;
  uint64_t Now = GovClock::nowUs();
  S.LastUs = Now > S.EnqueuedAtUs ? Now - S.EnqueuedAtUs : 0;
}

} // namespace alphonse
