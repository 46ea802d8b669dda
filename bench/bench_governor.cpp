//===- bench_governor.cpp - Experiment E13: governed propagation ----------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Resource-governed propagation (DESIGN.md Section 11):
//
//  E13a: the governance layer is free when unused — a pump under an
//        unlimited budget (no boundary checks armed) must stay within a
//        few percent of the classic ungoverned pump, and a pump whose
//        budget is enormous (checks armed at every evaluation boundary
//        but never tripping) bounds the worst-case check overhead.
//
//  E13b: a wall-clock deadline bounds wave latency — under sustained
//        overload (every wave is cut short, residue stays parked) the
//        p99 budgeted-wave latency tracks the deadline, not the size of
//        the backlog. Reported as p50/p99/max microsecond counters next
//        to the configured deadline.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "core/Alphonse.h"
#include "support/Budget.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

using namespace alphonse;

namespace {

/// A linear eager chain rooted at one source cell: the steady workload
/// every E13 variant pumps. Returns the chain so it outlives the caller's
/// loop (nodes hold the closures).
struct ChainFixture {
  ChainFixture(Runtime &RT, int Stages) : Src(RT, 0, "bench.src") {
    Stage.reserve(Stages);
    for (int I = 0; I < Stages; ++I) {
      Cell<int> *S = &Src;
      Maintained<int()> *Prev = Stage.empty() ? nullptr : Stage.back().get();
      Stage.push_back(std::make_unique<Maintained<int()>>(
          RT, [S, Prev] { return (Prev ? (*Prev)() : S->get()) + 1; },
          EvalStrategy::Eager, "bench.n" + std::to_string(I)));
      (*Stage.back())();
    }
  }
  Cell<int> Src;
  std::vector<std::unique_ptr<Maintained<int()>>> Stage;
};

} // namespace

// E13a: one edit + full repair wave per iteration, three governance
// modes over the identical workload:
//   /0 ungoverned      — classic pump(), no budget anywhere
//   /1 unlimited       — governed wave, unlimited budget (checks skipped)
//   /2 armed-no-trip   — governed wave, huge budget (checks at every
//                        evaluation boundary, never tripping)
static void BM_E13a_GovernedPumpOverhead(benchmark::State &State) {
  int Mode = static_cast<int>(State.range(0));
  Runtime RT;
  ChainFixture Chain(RT, 256);
  RT.pumpUnbounded();
  WaveBudget Armed;
  Armed.StepBudget = UINT64_MAX / 2;
  Armed.DeadlineUs = UINT64_MAX / 2;
  int Edit = 0;
  for (auto _ : State) {
    Chain.Src.set(++Edit);
    switch (Mode) {
    case 0:
      RT.pump();
      break;
    case 1:
      benchmark::DoNotOptimize(RT.pump(WaveBudget()));
      break;
    default:
      benchmark::DoNotOptimize(RT.pump(Armed));
      break;
    }
  }
  State.counters["steps/op"] = benchmark::Counter(
      static_cast<double>(RT.stats().EvalSteps.total()) /
      static_cast<double>(State.iterations()));
}
BENCHMARK(BM_E13a_GovernedPumpOverhead)->Arg(0)->Arg(1)->Arg(2);

// E13b: sustained overload under a deadline. The chain is far too long to
// repair within one deadline, and the source changes every iteration, so
// every wave degrades and parks residue — the steady state the governor
// exists for. The measured latency is the budgeted wave alone; p50/p99/max
// land in the counters so BENCH_all.json's bench_governor suite documents
// that p99 tracks the deadline while the backlog stays graph-sized.
static void BM_E13b_DeadlineBoundedWave(benchmark::State &State) {
  uint64_t DeadlineUs = static_cast<uint64_t>(State.range(0));
  Runtime RT;
  ChainFixture Chain(RT, 8192);
  RT.pumpUnbounded();
  WaveBudget B = WaveBudget::deadline(DeadlineUs);
  std::vector<double> WaveUs;
  WaveUs.reserve(4096);
  int Edit = 0;
  for (auto _ : State) {
    Chain.Src.set(++Edit);
    auto Start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(RT.pump(B));
    auto End = std::chrono::steady_clock::now();
    double Secs = std::chrono::duration<double>(End - Start).count();
    State.SetIterationTime(Secs);
    WaveUs.push_back(Secs * 1e6);
  }
  std::sort(WaveUs.begin(), WaveUs.end());
  auto Pct = [&](double P) {
    if (WaveUs.empty())
      return 0.0;
    size_t I = static_cast<size_t>(P * (WaveUs.size() - 1));
    return WaveUs[I];
  };
  State.counters["deadline_us"] = static_cast<double>(DeadlineUs);
  State.counters["p50_us"] = Pct(0.50);
  State.counters["p99_us"] = Pct(0.99);
  State.counters["max_us"] = WaveUs.empty() ? 0.0 : WaveUs.back();
  State.counters["degraded_waves"] =
      static_cast<double>(RT.stats().GovWavesDegraded.total());
  State.counters["parked"] = static_cast<double>(RT.graph().numPending());
}
BENCHMARK(BM_E13b_DeadlineBoundedWave)
    ->Arg(100)
    ->Arg(250)
    ->Arg(1000)
    ->UseManualTime();

// E13b': the recovery cost after sustained degradation — one unbudgeted
// pump draining a backlog built by K deadline-cut waves. Bounds "how far
// behind" graceful degradation lets the graph fall.
static void BM_E13b_RecoveryDrain(benchmark::State &State) {
  uint64_t Cuts = static_cast<uint64_t>(State.range(0));
  for (auto _ : State) {
    State.PauseTiming();
    Runtime RT;
    ChainFixture Chain(RT, 4096);
    RT.pumpUnbounded();
    int Edit = 0;
    for (uint64_t I = 0; I < Cuts; ++I) {
      Chain.Src.set(++Edit);
      RT.pump(WaveBudget::deadline(100));
    }
    State.ResumeTiming();
    benchmark::DoNotOptimize(RT.pumpUnbounded());
  }
}
BENCHMARK(BM_E13b_RecoveryDrain)->Arg(4)->Arg(16)->Arg(64);

ALPHONSE_BENCH_MAIN()
