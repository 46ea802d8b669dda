//===- bench_interp.cpp - Experiment E15 ----------------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The bytecode tier's parallel claim, measured on an Alphonse-L program:
// language nodes join parallel drains. An attribute-grammar-style
// workload — independent lanes of (*MAINTAINED EAGER*) total() chains
// whose recomputes block in pause() — is swept over worker counts. The
// lanes are disjoint partitions, so wave workers overlap their blocked
// time. BM_InterpWaveSpeedup reports the 4-worker-vs-serial ratio as the
// speedup_4w counter (the E15 acceptance number).
//
// Plus the E16a steady-state check: once warm, churn through a cone of
// nullary cached procedures grows no graph storage. After a warm-up the
// pool high-water mark is re-based (Runtime::resetPoolHighWater) and 10k
// churn waves run; BM_SteadyStateHighWater reports
// pool_high_water_start/_end, which must be equal
// (tools/validate_bench_json.py --flat-gauge).
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "lang/Parser.h"
#include "transform/Transform.h"

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

using namespace alphonse;
using namespace alphonse::lang;
using namespace alphonse::interp;

namespace {

// Attribute-grammar-style lanes: each lane is an independent chain of
// cells with a maintained, eagerly repaired total. Every recompute
// pauses, standing in for an evaluation that blocks (I/O, a slow
// attribute function); the per-lane TailNil sentinels keep the lanes in
// disjoint partitions so the scheduler may drain them concurrently.
const char *LaneProgram = R"(
TYPE Cell = OBJECT
  val : INTEGER;
  next : Cell;
METHODS
  (*MAINTAINED EAGER*) total() : INTEGER := Total;
END;

TYPE CellNil = Cell OBJECT
OVERRIDES
  (*MAINTAINED EAGER*) total := TotalNil;
END;

TYPE Lane = OBJECT
  head, tail : Cell;
  nextLane : Lane;
END;

VAR lanes : Lane;

PROCEDURE Total(c : Cell) : INTEGER =
BEGIN
  pause(200);
  RETURN c.val + c.next.total();
END Total;

PROCEDURE TotalNil(c : Cell) : INTEGER =
BEGIN
  RETURN 0;
END TotalNil;

PROCEDURE MakeLane(depth : INTEGER) : Lane =
VAR l : Lane; c : Cell; i : INTEGER;
BEGIN
  l := NEW(Lane);
  l.tail := NEW(CellNil);
  l.head := l.tail;
  FOR i := 1 TO depth DO
    c := NEW(Cell);
    c.val := i;
    c.next := l.head;
    l.head := c;
  END;
  RETURN l;
END MakeLane;

PROCEDURE Setup(k, depth : INTEGER) =
VAR i : INTEGER; l : Lane;
BEGIN
  lanes := NIL;
  FOR i := 1 TO k DO
    l := MakeLane(depth);
    l.nextLane := lanes;
    lanes := l;
  END;
END Setup;

PROCEDURE Demand() : INTEGER =
VAR l : Lane; s : INTEGER;
BEGIN
  s := 0;
  l := lanes;
  WHILE l # NIL DO
    s := s + l.head.total();
    l := l.nextLane;
  END;
  RETURN s;
END Demand;

PROCEDURE BumpAll(x : INTEGER) =
VAR l : Lane; c : Cell;
BEGIN
  l := lanes;
  WHILE l # NIL DO
    c := l.head;
    WHILE c.next # l.tail DO
      c := c.next;
    END;
    c.val := x;
    l := l.nextLane;
  END;
END BumpAll;
)";

// Eight globals feeding a three-level cone of nullary cached procedures.
const char *ConeProgram = R"(
VAR
  g0, g1, g2, g3, g4, g5, g6, g7 : INTEGER;

(*CACHED*) PROCEDURE C0() : INTEGER = BEGIN RETURN g0 + g1; END C0;
(*CACHED*) PROCEDURE C1() : INTEGER = BEGIN RETURN g1 + g2; END C1;
(*CACHED*) PROCEDURE C2() : INTEGER = BEGIN RETURN g2 + g3; END C2;
(*CACHED*) PROCEDURE C3() : INTEGER = BEGIN RETURN g3 + g4; END C3;
(*CACHED*) PROCEDURE C4() : INTEGER = BEGIN RETURN g4 + g5; END C4;
(*CACHED*) PROCEDURE C5() : INTEGER = BEGIN RETURN g5 + g6; END C5;
(*CACHED*) PROCEDURE C6() : INTEGER = BEGIN RETURN g6 + g7; END C6;
(*CACHED*) PROCEDURE C7() : INTEGER = BEGIN RETURN g7 + g0; END C7;

(*CACHED*) PROCEDURE Lo() : INTEGER =
BEGIN
  RETURN C0() + C1() + C2() + C3();
END Lo;

(*CACHED*) PROCEDURE Hi() : INTEGER =
BEGIN
  RETURN C4() + C5() + C6() + C7();
END Hi;

(*CACHED*) PROCEDURE All() : INTEGER =
BEGIN
  RETURN Lo() + Hi();
END All;

PROCEDURE Poke(i, v : INTEGER) =
BEGIN
  IF i = 0 THEN g0 := v;
  ELSIF i = 1 THEN g1 := v;
  ELSIF i = 2 THEN g2 := v;
  ELSIF i = 3 THEN g3 := v;
  ELSIF i = 4 THEN g4 := v;
  ELSIF i = 5 THEN g5 := v;
  ELSIF i = 6 THEN g6 := v;
  ELSE g7 := v;
  END;
END Poke;
)";

struct CompiledProgram {
  Module M;
  SemaInfo Info;
  DiagnosticEngine Diags;
};

std::unique_ptr<CompiledProgram> compileProgram(const char *Source) {
  auto C = std::make_unique<CompiledProgram>();
  C->M = parseModule(Source, C->Diags);
  C->Info = analyze(C->M, C->Diags);
  assert(!C->Diags.hasErrors());
  transform::transform(C->M, C->Info, transform::TransformOptions());
  return C;
}

constexpr int NumLanes = 8;
constexpr int LaneDepth = 6;

std::unique_ptr<Interp> makeLaneInterp(const CompiledProgram &C,
                                       unsigned Workers) {
  DepGraph::Config Cfg;
  Cfg.Workers = Workers;
  auto I = std::make_unique<Interp>(C.M, C.Info, ExecMode::Alphonse, Cfg);
  I->call("Setup", {Value::integer(NumLanes), Value::integer(LaneDepth)});
  I->call("Demand"); // Materialize every lane's instance chain.
  I->pump();
  assert(!I->failed());
  return I;
}

/// One repair cycle: dirty every lane's leaf, then drain the eager wave.
void repairCycle(Interp &I, long &Tick) {
  I.call("BumpAll", {Value::integer(++Tick)});
  I.pump();
}

/// The lane workload swept over worker counts. Each
/// iteration repairs NumLanes * LaneDepth instances, each blocking in
/// pause(200); independent partitions let workers overlap that time.
void BM_InterpParallelWaves(benchmark::State &State) {
  auto C = compileProgram(LaneProgram);
  auto I = makeLaneInterp(*C, static_cast<unsigned>(State.range(0)));
  long Tick = 100;
  for (auto _ : State)
    repairCycle(*I, Tick);
  State.counters["workers"] =
      static_cast<double>(State.range(0));
}
BENCHMARK(BM_InterpParallelWaves)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// The E15 acceptance number in one run: interleaves 4-worker and serial
/// repair cycles and reports their ratio as
/// speedup_4w (>= 2 expected — blocked recomputes overlap even on one
/// core).
void BM_InterpWaveSpeedup(benchmark::State &State) {
  auto C = compileProgram(LaneProgram);
  auto Par = makeLaneInterp(*C, /*Workers=*/4);
  auto Ser = makeLaneInterp(*C, /*Workers=*/0);
  long TickP = 100, TickS = 100;
  double ParNs = 0, SerNs = 0;
  using Clock = std::chrono::steady_clock;
  for (auto _ : State) {
    auto T0 = Clock::now();
    repairCycle(*Par, TickP);
    auto T1 = Clock::now();
    State.PauseTiming();
    auto T2 = Clock::now();
    repairCycle(*Ser, TickS);
    auto T3 = Clock::now();
    ParNs += std::chrono::duration<double, std::nano>(T1 - T0).count();
    SerNs += std::chrono::duration<double, std::nano>(T3 - T2).count();
    State.ResumeTiming();
  }
  State.counters["speedup_4w"] = ParNs > 0 ? SerNs / ParNs : 0;
}
BENCHMARK(BM_InterpWaveSpeedup)->Unit(benchmark::kMillisecond);

/// One churn wave: dirty one global, then demand the full cone plus every
/// leaf — one re-execution cascade (edge teardown + re-record) and ten
/// cache-hit incremental calls per wave.
long coneWave(Interp &I, long Tick) {
  I.call("Poke", {Value::integer(Tick % 8), Value::integer(Tick)});
  long S = I.call("All").Int;
  S += I.call("Lo").Int + I.call("Hi").Int;
  for (const char *Leaf : {"C0", "C1", "C2", "C3", "C4", "C5", "C6", "C7"})
    S += I.call(Leaf).Int;
  return S;
}

/// E16a: after warm-up, 10k waves of churn grow nothing. Fixed iteration
/// count so the steady-state window is the acceptance window.
void BM_SteadyStateHighWater(benchmark::State &State) {
  auto C = compileProgram(ConeProgram);
  Interp I(C->M, C->Info, ExecMode::Alphonse);
  long Tick = 1;
  // Warm-up: materialize every instance and cycle each global at least
  // once (so edge teardown has recycled slots and the free-list vectors
  // have their steady capacity), then re-base the high-water mark.
  for (int W = 0; W < 256; ++W)
    benchmark::DoNotOptimize(coneWave(I, Tick++));
  assert(!I.failed());
  I.runtime().resetPoolHighWater();
  const uint64_t Start = I.runtime().stats().PoolHighWater.total();

  long Sink = 0;
  for (auto _ : State)
    Sink += coneWave(I, Tick++);
  benchmark::DoNotOptimize(Sink);

  State.counters["pool_high_water_start"] = static_cast<double>(Start);
  State.counters["pool_high_water_end"] =
      static_cast<double>(I.runtime().stats().PoolHighWater.total());
  State.counters["waves"] = static_cast<double>(Tick - 257);
}
BENCHMARK(BM_SteadyStateHighWater)
    ->Iterations(10000)
    ->Unit(benchmark::kMicrosecond);

} // namespace

ALPHONSE_BENCH_MAIN();
