//===- CrashRecoveryTest.cpp - Fork-kill-restore crash drills -------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The durability contract, exercised literally: a forked child is killed
// (std::_Exit inside an armed injection site — no destructors, no
// flushing) at every step of the save protocol and of the delta append
// protocol. The parent then restores from whatever the dead child left on
// disk. At every kill point the restore must either produce one of the
// states the child durably reached (pre- or post-checkpoint; verify()
// clean, all quiescent values matching) or refuse with a structured
// CheckpointError — never crash, never accept a torn file.
//
// Kill points ("ckpt.io" hits 1-6): before temp-file create, before the
// first half-write, between the halves (torn temp), before fsync, before
// the rename, before the directory fsync. ("ckpt.delta.io" hits 1-4):
// before open, before the frame write, between frame and payload (torn
// record), before fsync.
//
//===----------------------------------------------------------------------===//

#include "CheckpointTestHost.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace alphonse;
using namespace alphonse::ckpttest;

namespace {

constexpr size_t kCells = 6;

class CrashRecoveryTest : public ::testing::Test {
protected:
  void SetUp() override {
    const char *Dir = std::getenv("TMPDIR");
    Path = std::string(Dir ? Dir : "/tmp") + "/crash-recovery." +
           std::to_string(::getpid()) + ".ckpt";
    cleanup();
  }
  void TearDown() override {
    // A failing drill leaves its files behind — CI uploads whatever the
    // dead child wrote as a post-mortem artifact. Passing runs clean up.
    if (!HasFailure())
      cleanup();
  }

  void cleanup() {
    std::remove(Path.c_str());
    std::remove((Path + ".tmp").c_str());
  }

  static void buildStateA(CheckpointHost &H) {
    H.touchAll();
    for (size_t I = 0; I < kCells; ++I)
      *H.Cells[I] = static_cast<int>(I + 1);
    H.RT.pump();
  }

  static void mutateToStateB(CheckpointHost &H) {
    for (size_t I = 0; I < kCells; I += 2)
      *H.Cells[I] = static_cast<int>(100 + I);
    H.RT.pump();
  }

  static void mutateToStateC(CheckpointHost &H) {
    *H.Cells[1] = -7;
    *H.Cells[5] = 5000;
    H.RT.pump();
  }

  /// Runs \p Child in a forked process; returns its wait status.
  template <typename Fn> int inChild(Fn Child) {
    ::fflush(nullptr); // Don't let the child replay buffered output.
    pid_t Pid = ::fork();
    if (Pid == 0) {
      Child();
      std::_Exit(0);
    }
    EXPECT_GT(Pid, 0) << "fork failed";
    int Status = 0;
    EXPECT_EQ(::waitpid(Pid, &Status, 0), Pid);
    return Status;
  }

  std::string Path;
};

// Killed at every step of a *second* save: the restore must see either
// the first file or the finished second one — the rename is the only
// visible transition. The first file is the base of state A alone, or
// that base plus a delta to state B (the old deltas must survive until
// the rename and vanish with it).
TEST_F(CrashRecoveryTest, KilledMidSnapshotRestoresOldOrNew) {
  std::string FpA, FpB, FpC;
  {
    CheckpointHost Ref(kCells);
    buildStateA(Ref);
    FpA = Ref.fingerprint();
    mutateToStateB(Ref);
    FpB = Ref.fingerprint();
    mutateToStateC(Ref);
    FpC = Ref.fingerprint();
  }

  for (bool WithDelta : {false, true}) {
    const std::string &Old = WithDelta ? FpB : FpA;
    const std::string &New = WithDelta ? FpC : FpB;
    for (uint64_t Kill = 1; Kill <= 6; ++Kill) {
      cleanup();
      int Status = inChild([&] {
        CheckpointHost H(kCells);
        buildStateA(H);
        H.save(Path); // Clean first checkpoint.
        mutateToStateB(H);
        if (WithDelta) {
          H.appendDelta(Path);
          mutateToStateC(H);
        }
        FaultInjector FI;
        FI.armKill("ckpt.io", Kill);
        FaultInjector::Scope Scope(FI);
        H.save(Path); // Dies at the armed step.
      });
      ASSERT_TRUE(WIFEXITED(Status));
      ASSERT_EQ(WEXITSTATUS(Status), 137)
          << "kill point " << Kill << " did not fire";

      CheckpointHost R(kCells);
      try {
        R.restore(Path);
      } catch (const CheckpointError &E) {
        FAIL() << "kill point " << Kill << (WithDelta ? " (delta)" : "")
               << ": a completed first checkpoint must stay loadable, got: "
               << E.what();
      }
      EXPECT_TRUE(R.RT.graph().verify().empty()) << "kill point " << Kill;
      std::string Got = R.fingerprint();
      EXPECT_TRUE(Got == Old || Got == New)
          << "kill point " << Kill << (WithDelta ? " (delta)" : "")
          << " restored a state that is neither pre- nor post-checkpoint";
    }
  }
}

// Killed mid-*first* snapshot: there is no previous good file, so the
// restore must refuse with a structured error (Io for a missing file,
// Truncated/CrcMismatch for a torn one) — and must never accept the
// leftover temp file as a checkpoint.
TEST_F(CrashRecoveryTest, KilledMidFirstSnapshotRefusesCleanly) {
  for (uint64_t Kill = 1; Kill <= 5; ++Kill) { // 6+ are post-rename.
    cleanup();
    int Status = inChild([&] {
      CheckpointHost H(kCells);
      buildStateA(H);
      FaultInjector FI;
      FI.armKill("ckpt.io", Kill);
      FaultInjector::Scope Scope(FI);
      H.save(Path);
    });
    ASSERT_TRUE(WIFEXITED(Status));
    ASSERT_EQ(WEXITSTATUS(Status), 137);

    CheckpointHost R(kCells);
    EXPECT_THROW(R.restore(Path), CheckpointError)
        << "kill point " << Kill;
  }
}

// Killed at every step of a delta append, with one complete delta already
// durable: the restore must land on base+delta1 (the torn second record
// is discarded) or on base+delta1+delta2 (the append reached the data
// before the kill).
TEST_F(CrashRecoveryTest, KilledMidDeltaAppendRestoresPrefix) {
  std::string FpB, FpC;
  {
    CheckpointHost Ref(kCells);
    buildStateA(Ref);
    mutateToStateB(Ref);
    FpB = Ref.fingerprint();
    mutateToStateC(Ref);
    FpC = Ref.fingerprint();
  }

  for (uint64_t Kill = 1; Kill <= 4; ++Kill) {
    cleanup();
    int Status = inChild([&] {
      CheckpointHost H(kCells);
      buildStateA(H);
      H.save(Path);
      mutateToStateB(H);
      H.appendDelta(Path); // Durable first delta.
      mutateToStateC(H);
      FaultInjector FI;
      FI.armKill("ckpt.delta.io", Kill);
      FaultInjector::Scope Scope(FI);
      H.appendDelta(Path); // Dies at the armed step.
    });
    ASSERT_TRUE(WIFEXITED(Status));
    ASSERT_EQ(WEXITSTATUS(Status), 137)
        << "kill point " << Kill << " did not fire";

    CheckpointHost R(kCells);
    try {
      R.restore(Path);
    } catch (const CheckpointError &E) {
      FAIL() << "kill point " << Kill
             << ": the base snapshot and intact delta prefix must stay "
             << "loadable, got: " << E.what();
    }
    EXPECT_TRUE(R.RT.graph().verify().empty()) << "kill point " << Kill;
    std::string Got = R.fingerprint();
    EXPECT_TRUE(Got == FpB || Got == FpC)
        << "kill point " << Kill
        << " restored a state that is not an intact delta prefix";
  }
}

// A crash mid-append followed by a healthy process appending again: the
// torn tail must be repaired (truncated), the new record must survive,
// and nothing from the torn write may resurface.
TEST_F(CrashRecoveryTest, AppendAfterTornTailRepairsTheLog) {
  std::string FpD;
  {
    CheckpointHost Ref(kCells);
    buildStateA(Ref);
    mutateToStateB(Ref);
    mutateToStateC(Ref);
    *Ref.Cells[2] = 42; // State D: what the recovering process writes.
    Ref.RT.pump();
    FpD = Ref.fingerprint();
  }

  int Status = inChild([&] {
    CheckpointHost H(kCells);
    buildStateA(H);
    H.save(Path);
    mutateToStateB(H);
    H.appendDelta(Path);
    mutateToStateC(H);
    FaultInjector FI;
    FI.armKill("ckpt.delta.io", 3); // Torn: header written, payload not.
    FaultInjector::Scope Scope(FI);
    H.appendDelta(Path);
  });
  ASSERT_TRUE(WIFEXITED(Status));
  ASSERT_EQ(WEXITSTATUS(Status), 137);

  // The "recovering" process: restore what survived, keep mutating,
  // append — exactly what a restarted service does.
  CheckpointHost R(kCells);
  R.restore(Path);
  mutateToStateC(R);
  *R.Cells[2] = 42;
  R.RT.pump();
  R.appendDelta(Path);

  CheckpointHost Verify(kCells);
  Verify.restore(Path);
  EXPECT_TRUE(Verify.RT.graph().verify().empty());
  EXPECT_EQ(FpD, Verify.fingerprint());
}

} // namespace
