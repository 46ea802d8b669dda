//===- CheckpointReplayTest.cpp - Randomized delta/undo interleaving ------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Randomized (fixed-seed) interaction of the undo journal with the delta
// log: a live host interleaves committed batches, rolled-back batches,
// plain writes, delta appends, and occasional full snapshots. At every
// point where the disk state advances, a fresh host restored from disk
// must be equivalent to the live host — rolled-back batches must leave no
// trace in what gets persisted, and replay order must not matter.
//
//===----------------------------------------------------------------------===//

#include "CheckpointTestHost.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <random>
#include <string>

using namespace alphonse;
using namespace alphonse::ckpttest;

namespace {

constexpr size_t kCells = 6;
constexpr int kIterations = 40;

class TempPath {
public:
  explicit TempPath(const std::string &Stem) {
    const char *Dir = std::getenv("TMPDIR");
    Path = std::string(Dir ? Dir : "/tmp") + "/" + Stem + "." +
           std::to_string(::getpid()) + ".ckpt";
  }
  ~TempPath() {
    std::remove(Path.c_str());
    std::remove((Path + ".tmp").c_str());
  }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

TEST(CheckpointReplayTest, RandomizedBatchAndDeltaInterleaving) {
  TempPath File("ckpt-replay");
  std::mt19937 Rng(0xC0FFEE); // Fixed seed: failures must reproduce.
  std::uniform_int_distribution<int> CellDist(0, kCells - 1);
  std::uniform_int_distribution<int> ValueDist(-1000, 1000);
  std::uniform_int_distribution<int> OpDist(0, 9);

  CheckpointHost Live(kCells);
  Live.touchAll();
  Live.save(File.path());

  int DiskChecks = 0;
  for (int It = 0; It < kIterations; ++It) {
    switch (OpDist(Rng)) {
    case 0:
    case 1:
    case 2: { // Committed batch of random writes.
      Transaction Txn(Live.RT);
      for (int W = 0; W < 3; ++W)
        *Live.Cells[static_cast<size_t>(CellDist(Rng))] = ValueDist(Rng);
      ASSERT_TRUE(Txn.commit());
      break;
    }
    case 3:
    case 4: { // Rolled-back batch: must leave no trace anywhere.
      Transaction Txn(Live.RT);
      for (int W = 0; W < 3; ++W)
        *Live.Cells[static_cast<size_t>(CellDist(Rng))] = ValueDist(Rng);
      Txn.rollback();
      break;
    }
    case 5:
    case 6: { // Plain writes outside any batch.
      *Live.Cells[static_cast<size_t>(CellDist(Rng))] = ValueDist(Rng);
      Live.RT.pump();
      break;
    }
    case 7:
    case 8: // Delta append: the disk state catches up.
      Live.appendDelta(File.path());
      break;
    default: // Occasional full snapshot resets the delta log.
      Live.save(File.path());
      break;
    }

    // After every op that advanced the disk, a restored host must agree
    // with the live one (the delta log always ends at a quiescent cut).
    if (OpDist(Rng) < 3) {
      Live.appendDelta(File.path());
      CheckpointHost Restored(kCells);
      Restored.restore(File.path());
      ASSERT_TRUE(Restored.RT.graph().verify().empty())
          << "iteration " << It;
      ASSERT_EQ(Live.fingerprint(), Restored.fingerprint())
          << "iteration " << It;
      ++DiskChecks;
    }
  }

  // Final catch-up and end-to-end comparison.
  Live.appendDelta(File.path());
  CheckpointHost Final(kCells);
  Final.restore(File.path());
  EXPECT_TRUE(Final.RT.graph().verify().empty());
  EXPECT_EQ(Live.fingerprint(), Final.fingerprint());
  // The interleaving must actually have exercised mid-run restores.
  EXPECT_GT(DiskChecks, 3);
}

// Rollback immediately followed by a delta append persists the pre-batch
// state, byte for byte.
TEST(CheckpointReplayTest, RollbackNeverReachesTheLog) {
  TempPath File("ckpt-rollback");
  CheckpointHost Live(kCells);
  Live.touchAll();
  *Live.Cells[0] = 17;
  Live.save(File.path());
  std::string Before = Live.fingerprint();

  {
    Transaction Txn(Live.RT);
    *Live.Cells[0] = 999999;
    *Live.Cells[5] = -999999;
    Txn.rollback();
  }
  Live.appendDelta(File.path());

  CheckpointHost Restored(kCells);
  Restored.restore(File.path());
  EXPECT_EQ(Before, Restored.fingerprint());
  EXPECT_EQ(Restored.Cells[0]->peek(), 17);
}

} // namespace
