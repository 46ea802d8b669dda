//===- SessionZipf.cpp - session_zipf: Zipf edit batches to 10k sessions --===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Closed loop, one client, E14's shape: a SessionManager holds 10,000 small
// spreadsheet sessions ((0,0) literal, (0,1) = 2*(0,0)+1, (1,1) =
// (0,1)+(0,0)). One op is a batch of 64 edits, each setting the literal of
// a session picked by Zipf(1.1), followed by one drainCycle(); its latency
// runs from the first mutate to the end of the cycle that settled the
// batch. Every edited session's (1,1) is then checked against 3v+1; an
// edit fails if its answer disagrees, or its wave was shed, deferred or
// faulted.
//
// Not an open loop: at a fixed offered rate the per-edit latency was a few
// microseconds of work plus the host's scheduling jitter, and its p99
// moved by up to 7x from run to run on a virtualized host. Sessions drain inline
// (ServiceConfig::Workers = 0): handing each cycle to a worker pool costs
// a cross-CPU wake-up whose latency follows the host's load (p50 from
// 50 us to 1.7 ms at 50k edits/s, against about 6 us inline).
//
// The only workload that loads the service (dirty queue, drain cycles,
// per-session budgets) and per-runtime memory at 10k runtimes.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "service/SessionManager.h"
#include "spreadsheet/Spreadsheet.h"

#include <algorithm>

using namespace alphonse;
using alphonse::spreadsheet::Spreadsheet;

namespace perfbench {
namespace {

constexpr size_t NumSessions = 10000;
constexpr size_t BatchEdits = 64;
/// Durability rotates over the hottest sessions, one checkpoint file each;
/// a restore brings all of them back.
constexpr size_t HotSet = 8;

class SessionZipf : public Workload {
public:
  explicit SessionZipf(const RunConfig &C)
      : Workload(C), Ops(C.Seed, 0x5e6), Popular(NumSessions, 1.1) {
    Rng P(C.Seed, 0x5e7);
    RankToSession.resize(NumSessions);
    for (size_t I = 0; I < NumSessions; ++I)
      RankToSession[I] = I;
    for (size_t I = NumSessions - 1; I > 0; --I)
      std::swap(RankToSession[I], RankToSession[P.below(I + 1)]);
  }

  void setup(Tracer *T) override {
    ServiceConfig SC;
    SC.Workers = 0;
    M = std::make_unique<SessionManager>(SC);
    Ids.clear();
    Expected.assign(NumSessions, 0);
    Rng R(Cfg.Seed, 0x5e5);
    for (size_t I = 0; I < NumSessions; ++I) {
      Session &Sess = M->open();
      Ids.push_back(Sess.id());
      Spreadsheet &Sheet =
          Sess.emplaceProgram<Spreadsheet>(Sess.runtime(), 2, 2);
      Expected[I] = static_cast<int>(R.below(1000));
      Sheet.setLiteral(0, 0, Expected[I]);
      Sheet.setFormula(0, 1, "cell(0,0) * 2 + 1");
      Sheet.setFormula(1, 1, "cell(0,1) + cell(0,0)");
      M->markDirty(Sess);
    }
    {
      Span Sp(T, "SessionManager::drainCycle", "service");
      M->drainAll();
      sheet(0).value(1, 1);
    }
    Base = {M->stats().DrainCycles, M->stats().WavesAdmitted};
  }

  void teardown() override {
    foldServiceStats();
    M.reset();
    Ids.clear();
  }

  void prepare() override {
    Batch.clear();
    for (size_t I = 0; I < BatchEdits; ++I) {
      size_t S = RankToSession[Popular.sample(Ops)];
      Batch.push_back({S, ++Value});
      Hash.add(S << 32 | static_cast<uint32_t>(Value));
    }
  }

  void apply(Tracer *T) override {
    for (const Edit &E : Batch) {
      Span Sp(T, "SessionManager::mutate", "service");
      M->mutate(Ids[E.Session], [&](Session &Sess) {
        Sess.program<Spreadsheet>()->setLiteral(0, 0, E.Value);
      });
    }
    QueuePeak = std::max(QueuePeak, M->queueDepth());
    Span Sp(T, "SessionManager::drainCycle", "service");
    M->drainCycle();
  }

  bool check() override {
    for (const Edit &E : Batch)
      Expected[E.Session] = E.Value;
    bool Ok = true;
    for (const Edit &E : Batch) {
      int Want = 3 * Expected[E.Session] + 1;
      if (corruptNow())
        Want += 1;
      Ok &= answerOk(E.Session, Want);
    }
    return Ok;
  }

  size_t durableEvery() const override { return 16; }
  /// Epochs only spread the restore and set-up samples over the run; the
  /// sessions themselves do not grow.
  size_t epochOps() const override { return 4096; }

  /// Checkpoints the next hot session into its own slot file.
  void durable(Tracer *T) override {
    size_t Slot = Saves++ % HotSet;
    size_t Hot = RankToSession[Slot];
    Statistics &St = M->find(Ids[Hot])->runtime().stats();
    uint64_t Before = St.CkptBytesWritten;
    {
      Span Sp(T, "Spreadsheet::saveCheckpoint", "ckpt");
      sheet(Hot).saveCheckpoint(slotPath(Slot));
    }
    SavedBytes += static_cast<double>(St.CkptBytesWritten - Before);
    SavedLiteral[Slot] = Expected[Hot];
  }

  /// Restores every slot written so far into freshly opened sessions.
  void restore(Tracer *T) override {
    Span Sp(T, "restore", "ckpt");
    Restored.clear();
    for (size_t Slot = 0; Slot < std::min<uint64_t>(Saves, HotSet); ++Slot) {
      Session &Fresh = M->open();
      Spreadsheet &Sheet =
          Fresh.emplaceProgram<Spreadsheet>(Fresh.runtime(), 2, 2);
      Sheet.restoreCheckpoint(slotPath(Slot));
      Restored.push_back({Fresh.id(), Sheet.value(1, 1)});
      RestoredNodes +=
          static_cast<double>(Fresh.runtime().stats().CkptRestoredNodes);
      ++Restores;
    }
  }

  bool checkRestore() override {
    bool Ok = true;
    for (size_t Slot = 0; Slot < Restored.size(); ++Slot) {
      auto [Id, Value] = Restored[Slot];
      Ok &= Value == 3 * SavedLiteral[Slot] + 1 &&
            M->find(Id)->runtime().graph().verify().empty();
      M->close(Id);
    }
    return Ok;
  }

  void finalCheck(std::vector<std::string> &Problems) override {
    M->drainAll();
    for (size_t I = 0; I < NumSessions; ++I) {
      Runtime &RT = M->find(Ids[I])->runtime();
      if (!RT.graph().verify().empty() || RT.graph().numQuarantined() ||
          !answerOk(I, 3 * Expected[I] + 1)) {
        Problems.push_back("session_zipf: session " + std::to_string(I) +
                           " failed its final check");
        return;
      }
    }
  }

  void snap(Snap &S) override {
    for (Session::Id Id : Ids)
      S.add(M->find(Id)->runtime().stats());
  }

  void resetHighWater() override {
    for (Session::Id Id : Ids)
      M->find(Id)->runtime().resetPoolHighWater();
  }

  void resetExtras() override {
    foldServiceStats();
    Cycles = Admitted = 0;
    QueuePeak = 0;
    SavedBytes = RestoredNodes = Restores = 0;
    Saves = 0;
  }

  void extras(std::map<std::string, double> &E) override {
    foldServiceStats();
    E["service.cycles"] = static_cast<double>(Cycles);
    E["service.sessions_per_cycle"] = Metrics::ratio(
        static_cast<double>(Admitted), static_cast<double>(Cycles));
    E["service.queue_peak"] = static_cast<double>(QueuePeak);
    E["ckpt.delta_bytes"] = Metrics::ratio(SavedBytes, Saves);
    E["ckpt.restored_nodes"] = Metrics::ratio(RestoredNodes, Restores);
  }

private:
  struct Edit {
    size_t Session;
    int Value;
  };

  Spreadsheet &sheet(size_t I) {
    return *M->find(Ids[I])->program<Spreadsheet>();
  }

  /// Adds the live manager's cycles and admitted waves since the last fold
  /// (each epoch has a fresh manager with fresh ServiceStats).
  void foldServiceStats() {
    if (!M)
      return;
    Cycles += M->stats().DrainCycles - Base[0];
    Admitted += M->stats().WavesAdmitted - Base[1];
    Base = {M->stats().DrainCycles, M->stats().WavesAdmitted};
  }

  std::string slotPath(size_t Slot) const {
    return Cfg.WorkDir + "/session-" + std::to_string(Slot) + ".ckpt";
  }

  /// A settled edit: the session is clean (not shed, deferred or faulted
  /// into staying dirty) and its total reads \p Want.
  bool answerOk(size_t I, int Want) {
    Session *Sess = M->find(Ids[I]);
    return Sess && !Sess->dirty() &&
           Sess->program<Spreadsheet>()->value(1, 1) == Want;
  }

  Rng Ops;
  Zipf Popular;
  std::vector<size_t> RankToSession;
  std::unique_ptr<SessionManager> M;
  std::vector<Session::Id> Ids;
  std::vector<int> Expected; ///< Latest literal per session.
  std::vector<Edit> Batch;
  int Value = 1000;

  std::array<uint64_t, 2> Base{};
  uint64_t Cycles = 0, Admitted = 0;
  size_t QueuePeak = 0;
  double SavedBytes = 0, RestoredNodes = 0, Restores = 0;
  uint64_t Saves = 0;
  std::array<int, HotSet> SavedLiteral{};
  std::vector<std::pair<Session::Id, int>> Restored;
};

} // namespace

std::unique_ptr<Workload> makeSessionZipf(const RunConfig &C) {
  return std::make_unique<SessionZipf>(C);
}

} // namespace perfbench
