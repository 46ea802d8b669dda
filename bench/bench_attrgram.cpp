//===- bench_attrgram.cpp - Experiment E5 ---------------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Section 7.1 / Section 10: Alphonse subsumes incremental attribute
// grammar systems. After a small edit to an expression tree, incremental
// reattribution re-runs only the edit's spine (O(log n) for a balanced
// tree), while full reattribution pays O(n). A deep let-nest edit of the
// outermost binding is the worst case: every environment attribute
// changes, so the incremental pass degenerates to the exhaustive one
// times the bookkeeping constant.
//
//===----------------------------------------------------------------------===//

#include "attrgram/ExprTree.h"

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

using namespace alphonse;
using namespace alphonse::attrgram;

namespace {

/// A balanced Plus-tree over N literals, bound inside one let so the
/// environment machinery participates:  let base = 1 in base + SUM ni.
struct WideProgram {
  RootExp *Root = nullptr;
  std::vector<IntExp *> Leaves;
};

WideProgram buildWide(ExprTree &T, int N) {
  WideProgram P;
  std::vector<Exp *> Level;
  for (int I = 0; I < N; ++I) {
    IntExp *L = T.makeInt(I % 10);
    P.Leaves.push_back(L);
    Level.push_back(L);
  }
  while (Level.size() > 1) {
    std::vector<Exp *> Next;
    for (size_t I = 0; I + 1 < Level.size(); I += 2)
      Next.push_back(T.makePlus(Level[I], Level[I + 1]));
    if (Level.size() % 2 != 0)
      Next.push_back(Level.back());
    Level = std::move(Next);
  }
  Exp *Body = T.makePlus(T.makeId("base"), Level[0]);
  P.Root = T.makeRoot(T.makeLet("base", T.makeInt(1), Body));
  return P;
}

/// Deep let nest:  let v0 = LIT in let v1 = v0+1 in ... in v_{D-1} ni...
struct DeepProgram {
  RootExp *Root = nullptr;
  IntExp *BaseLit = nullptr;
};

/// The name of let variable \p I ("v3"). Built with += on a named string:
/// GCC 12 reports a false -Wrestrict on "v" + std::to_string(I).
std::string varName(int I) {
  std::string Name = "v";
  Name += std::to_string(I);
  return Name;
}

DeepProgram buildDeep(ExprTree &T, int Depth) {
  DeepProgram P;
  Exp *Cur = T.makeId(varName(Depth - 1));
  for (int I = Depth - 1; I >= 0; --I) {
    Exp *Bind;
    if (I == 0) {
      P.BaseLit = T.makeInt(1);
      Bind = P.BaseLit;
    } else {
      Bind = T.makePlus(T.makeId(varName(I - 1)), T.makeInt(1));
    }
    Cur = T.makeLet(varName(I), Bind, Cur);
  }
  P.Root = T.makeRoot(Cur);
  return P;
}

} // namespace

// E5a: one leaf edit in a balanced tree of N literals — incremental
// reattribution re-runs the leaf-to-root spine, O(log N).
static void BM_E5_IncrementalLeafEdit(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  Runtime RT;
  ExprTree T(RT);
  WideProgram P = buildWide(T, N);
  T.value(P.Root);
  int Tick = 0;
  RT.resetStats();
  for (auto _ : State) {
    P.Leaves[0]->Lit.set(++Tick % 97);
    benchmark::DoNotOptimize(T.value(P.Root));
  }
  State.counters["execs/op"] = benchmark::Counter(
      static_cast<double>(RT.stats().ProcExecutions) /
      static_cast<double>(State.iterations()));
  State.counters["n"] = static_cast<double>(N);
}
BENCHMARK(BM_E5_IncrementalLeafEdit)->Arg(64)->Arg(512)->Arg(4096)->Arg(16384);

// E5b: the same edit answered by exhaustive attribution from scratch,
// O(N).
static void BM_E5_ExhaustiveLeafEdit(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  Runtime RT;
  ExprTree T(RT);
  WideProgram P = buildWide(T, N);
  int Tick = 0;
  for (auto _ : State) {
    P.Leaves[0]->Lit.set(++Tick % 97);
    benchmark::DoNotOptimize(T.oracleValue(P.Root));
  }
  State.counters["n"] = static_cast<double>(N);
}
BENCHMARK(BM_E5_ExhaustiveLeafEdit)->Arg(64)->Arg(512)->Arg(4096)->Arg(16384);

// E5c: worst case — editing the outermost binding of a deep let nest
// changes every environment; incremental cost ≈ exhaustive cost times
// the bookkeeping constant.
static void BM_E5_WorstCaseBindingEdit(benchmark::State &State) {
  int Depth = static_cast<int>(State.range(0));
  Runtime RT;
  ExprTree T(RT);
  DeepProgram P = buildDeep(T, Depth);
  T.value(P.Root);
  int Tick = 0;
  for (auto _ : State) {
    P.BaseLit->Lit.set(++Tick);
    benchmark::DoNotOptimize(T.value(P.Root));
  }
  State.counters["depth"] = static_cast<double>(Depth);
}
BENCHMARK(BM_E5_WorstCaseBindingEdit)->Arg(8)->Arg(32)->Arg(128);

// E5d: the exhaustive pass for the deep nest (the E5c baseline).
static void BM_E5_WorstCaseExhaustive(benchmark::State &State) {
  int Depth = static_cast<int>(State.range(0));
  Runtime RT;
  ExprTree T(RT);
  DeepProgram P = buildDeep(T, Depth);
  int Tick = 0;
  for (auto _ : State) {
    P.BaseLit->Lit.set(++Tick);
    benchmark::DoNotOptimize(T.oracleValue(P.Root));
  }
  State.counters["depth"] = static_cast<double>(Depth);
}
BENCHMARK(BM_E5_WorstCaseExhaustive)->Arg(8)->Arg(32)->Arg(128);

ALPHONSE_BENCH_MAIN();
