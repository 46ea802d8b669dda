//===- bench_checkpoint.cpp - Checkpoint save/restore cost ----------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Cost of the durability layer (DESIGN.md Section 10) on a program of N
// tracked cells plus N maintained prefix-sum instances. A checkpoint
// holds the cell values only; the graph is derived state.
//
//  CKa: full snapshot — serialize the cell values, write crash-atomically
//       (temp + fsync + rename). Reported with the file size as a
//       counter; the claim is O(live state), not O(history).
//  CKb: restore to a warm host — decode, set the cells of a fresh host,
//       then demand every sum, which rebuilds the graph. Building the
//       fresh host and destroying it are not timed.
//  CKc: delta append — one changed cell, one record appended to the
//       checkpoint file; the cheap steady-state path that amortizes CKa.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "graph/CheckpointTestHost.h"

#include <benchmark/benchmark.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

using namespace alphonse;
using namespace alphonse::ckpttest;

namespace {

/// Per-process temp path; every benchmark overwrites it freely.
std::string benchPath() {
  const char *Dir = std::getenv("TMPDIR");
  return std::string(Dir ? Dir : "/tmp") + "/bench-checkpoint." +
         std::to_string(::getpid()) + ".ckpt";
}

void cleanupPath(const std::string &Path) {
  std::remove(Path.c_str());
  std::remove((Path + ".tmp").c_str());
}

size_t fileSize(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? static_cast<size_t>(St.st_size)
                                        : 0;
}

} // namespace

// CKa: full crash-atomic snapshot of a quiescent N-cell graph.
static void BM_Ckpt_Save(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  std::string Path = benchPath();
  CheckpointHost Host(N);
  Host.touchAll();
  Host.RT.pump();
  for (auto _ : State)
    Host.save(Path);
  State.counters["cells"] = static_cast<double>(N);
  State.counters["bytes"] = static_cast<double>(fileSize(Path));
  cleanupPath(Path);
}
BENCHMARK(BM_Ckpt_Save)->Arg(64)->Arg(512)->Arg(4096);

// CKb: restore into a fresh host, then demand every sum: the host ends
// warm, with its whole graph built.
static void BM_Ckpt_Restore(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  std::string Path = benchPath();
  {
    CheckpointHost Host(N);
    Host.touchAll();
    Host.save(Path);
  }
  // Building the fresh host, and tearing down the previous iteration's,
  // happen with the timer paused: only restore plus demand is timed.
  std::unique_ptr<CheckpointHost> Fresh;
  for (auto _ : State) {
    State.PauseTiming();
    Fresh.reset();
    Fresh = std::make_unique<CheckpointHost>(N);
    State.ResumeTiming();
    Fresh->restore(Path);
    Fresh->touchAll();
    benchmark::DoNotOptimize(Fresh->RT.graph().numLiveNodes());
  }
  Fresh.reset();
  State.counters["cells"] = static_cast<double>(N);
  State.counters["bytes"] = static_cast<double>(fileSize(Path));
  cleanupPath(Path);
}
BENCHMARK(BM_Ckpt_Restore)->Arg(64)->Arg(512)->Arg(4096);

// CKc: the steady-state path — one cell write, one delta record appended
// to the checkpoint file. An append re-reads only 16 bytes of the header,
// so the file's growth across iterations does not enter the cost.
static void BM_Ckpt_DeltaAppend(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  std::string Path = benchPath();
  CheckpointHost Host(N);
  Host.touchAll();
  Host.save(Path);
  int V = 0;
  for (auto _ : State) {
    ++V;
    *Host.Cells[static_cast<size_t>(V) % N] = V;
    Host.appendDelta(Path);
  }
  State.counters["cells"] = static_cast<double>(N);
  cleanupPath(Path);
}
BENCHMARK(BM_Ckpt_DeltaAppend)->Arg(64)->Arg(512)->Arg(4096);

ALPHONSE_BENCH_MAIN();
