//===- bench_interp.cpp - Experiment E16a ---------------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The E16a steady-state check on an Alphonse-L program: once warm, churn
// through a cone of nullary cached procedures grows no graph storage.
// After a warm-up the pool high-water mark is re-based
// (Runtime::resetPoolHighWater) and 10k churn waves run;
// BM_SteadyStateHighWater reports pool_high_water_start/_end, which must
// be equal (tools/validate_bench_json.py --flat-gauge).
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "lang/Parser.h"
#include "transform/Transform.h"

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

#include <memory>

using namespace alphonse;
using namespace alphonse::lang;
using namespace alphonse::interp;

namespace {

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
