//===- CheckpointTest.cpp - Checkpoint roundtrip and corruption tests -----===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Roundtrip fidelity of the checkpoint subsystem plus the corruption
// property: a checkpoint file that has been truncated at any length,
// bit-flipped at any offset, or stamped with a wrong format version is
// either rejected with a structured CheckpointError or (when the damage
// missed all meaningful bytes, e.g. alignment padding) restores to an
// equivalent state. It never crashes and never yields a torn graph.
//
//===----------------------------------------------------------------------===//

#include "CheckpointTestHost.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <vector>

using namespace alphonse;
using namespace alphonse::ckpttest;

namespace {

/// A unique temp path per test, removed (with its delta sidecar) on exit.
class TempCheckpoint {
public:
  explicit TempCheckpoint(const std::string &Stem) {
    const char *Dir = std::getenv("TMPDIR");
    Path = std::string(Dir ? Dir : "/tmp") + "/" + Stem + "." +
           std::to_string(::getpid()) + ".ckpt";
  }
  ~TempCheckpoint() {
    std::remove(Path.c_str());
    std::remove((Path + ".tmp").c_str());
    std::remove(deltaLogPath(Path).c_str());
  }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

std::vector<uint8_t> slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good());
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

void spit(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

TEST(CheckpointTest, RoundtripPreservesValuesAndGraph) {
  TempCheckpoint File("ckpt-roundtrip");
  CheckpointHost A(8);
  A.touchAll();
  for (size_t I = 0; I < 8; ++I)
    *A.Cells[I] = static_cast<int>(10 * I + 1);
  A.RT.pump();
  std::string Before = A.fingerprint();
  A.save(File.path());

  CheckpointHost B(8);
  B.restore(File.path());
  EXPECT_TRUE(B.RestoreNote.empty());
  EXPECT_TRUE(B.RT.graph().verify().empty());
  EXPECT_EQ(Before, B.fingerprint());

  // The restored graph keeps working incrementally: one write, cheap
  // re-demand, correct values.
  *B.Cells[3] = 1000;
  EXPECT_EQ(B.Sum(7), 7 + 1 + 11 + 21 + 1000 + 41 + 51 + 61 + 71);
}

TEST(CheckpointTest, DeltaRoundtrip) {
  TempCheckpoint File("ckpt-delta");
  CheckpointHost A(6);
  A.touchAll();
  A.save(File.path());
  for (int Round = 0; Round < 3; ++Round) {
    *A.Cells[static_cast<size_t>(Round)] = 100 + Round;
    A.appendDelta(File.path());
  }
  std::string Want = A.fingerprint();

  CheckpointHost B(6);
  B.restore(File.path());
  EXPECT_TRUE(B.RestoreNote.empty());
  EXPECT_EQ(Want, B.fingerprint());
}

TEST(CheckpointTest, RestoreRejectsWrongExtent) {
  TempCheckpoint File("ckpt-extent");
  CheckpointHost A(4);
  A.touchAll();
  A.save(File.path());
  CheckpointHost B(5);
  try {
    B.restore(File.path());
    FAIL() << "restore into a different extent must throw";
  } catch (const CheckpointError &E) {
    EXPECT_EQ(E.code(), CkptError::Malformed);
  }
}

TEST(CheckpointTest, MissingFileIsStructuredError) {
  try {
    CheckpointHost B(2);
    B.restore("/nonexistent/path/to/checkpoint.ckpt");
    FAIL() << "missing file must throw";
  } catch (const CheckpointError &E) {
    EXPECT_EQ(E.code(), CkptError::Io);
  }
}

TEST(CheckpointTest, WrongVersionIsRejectedAsBadVersion) {
  TempCheckpoint File("ckpt-version");
  {
    CheckpointHost A(3);
    A.touchAll();
    A.save(File.path());
  }
  std::vector<uint8_t> Bytes = slurp(File.path());
  ASSERT_GT(Bytes.size(), 12u);
  Bytes[8] += 1; // Format version field (little-endian u32 at offset 8).
  spit(File.path(), Bytes);
  try {
    CheckpointHost B(3);
    B.restore(File.path());
    FAIL() << "future-version file must be refused";
  } catch (const CheckpointError &E) {
    EXPECT_EQ(E.code(), CkptError::BadVersion);
  }
}

TEST(CheckpointTest, VersionTwoFileIsRejectedAsBadVersion) {
  // Format version 3 dropped the serial-pin bit from the node flags, and
  // version 4 dropped the graph image: files of either older version are
  // refused like any other.
  TempCheckpoint File("ckpt-version2");
  {
    CheckpointHost A(3);
    A.touchAll();
    A.save(File.path());
  }
  std::vector<uint8_t> Good = slurp(File.path());
  ASSERT_GT(Good.size(), 12u);
  ASSERT_EQ(Good[8], 4u);
  for (uint8_t Old : {2, 3}) {
    std::vector<uint8_t> Bytes = Good;
    Bytes[8] = Old;
    spit(File.path(), Bytes);
    try {
      CheckpointHost B(3);
      B.restore(File.path());
      ADD_FAILURE() << "a version-" << int(Old) << " file must be refused";
    } catch (const CheckpointError &E) {
      EXPECT_EQ(E.code(), CkptError::BadVersion) << "version " << int(Old);
    }
  }
}

TEST(CheckpointTest, GarbageFileIsRejected) {
  TempCheckpoint File("ckpt-garbage");
  spit(File.path(), {'n', 'o', 't', ' ', 'a', ' ', 'c', 'k', 'p', 't'});
  try {
    CheckpointHost B(3);
    B.restore(File.path());
    FAIL() << "garbage must be refused";
  } catch (const CheckpointError &E) {
    EXPECT_TRUE(E.code() == CkptError::BadMagic ||
                E.code() == CkptError::Truncated);
  }
}

// The corruption property: every truncation length rejects cleanly.
TEST(CheckpointTest, TruncationAtAnyLengthIsRejected) {
  TempCheckpoint File("ckpt-truncate");
  {
    CheckpointHost A(6);
    A.touchAll();
    for (size_t I = 0; I < 6; ++I)
      *A.Cells[I] = static_cast<int>(I + 7);
    A.save(File.path());
  }
  std::vector<uint8_t> Good = slurp(File.path());
  ASSERT_GT(Good.size(), 64u);

  // Every length below the header, then a sweep above it.
  std::vector<size_t> Lengths;
  for (size_t L = 0; L < 40; ++L)
    Lengths.push_back(L);
  for (size_t L = 40; L < Good.size(); L += 13)
    Lengths.push_back(L);
  for (size_t L : Lengths) {
    spit(File.path(),
         std::vector<uint8_t>(Good.begin(),
                              Good.begin() + static_cast<long>(L)));
    CheckpointHost B(6);
    EXPECT_THROW(B.restore(File.path()), CheckpointError)
        << "truncation to " << L << " bytes must be rejected";
  }
}

// Every single-byte flip either rejects cleanly or restores to the same
// state (the flip landed in bytes no consumer reads, e.g. alignment
// padding). Never a crash, never a different accepted state.
TEST(CheckpointTest, BitFlipAtAnyOffsetRejectsOrRestoresEquivalently) {
  TempCheckpoint File("ckpt-bitflip");
  std::string Want;
  {
    CheckpointHost A(5);
    A.touchAll();
    for (size_t I = 0; I < 5; ++I)
      *A.Cells[I] = static_cast<int>(3 * I + 2);
    Want = A.fingerprint();
    A.save(File.path());
  }
  std::vector<uint8_t> Good = slurp(File.path());

  for (size_t Off = 0; Off < Good.size(); Off += 3) {
    std::vector<uint8_t> Bad = Good;
    Bad[Off] ^= 0x20;
    spit(File.path(), Bad);
    CheckpointHost B(5);
    try {
      B.restore(File.path());
      // Accepted: the flip must have been meaningless. Same state, clean
      // audit — anything else is a torn load.
      EXPECT_TRUE(B.RT.graph().verify().empty())
          << "flip at " << Off << " accepted an inconsistent graph";
      EXPECT_EQ(Want, B.fingerprint())
          << "flip at " << Off << " accepted a different state";
    } catch (const CheckpointError &) {
      // Structured rejection: the expected outcome.
    }
  }
}

// A torn delta tail (simulated truncation) degrades to the intact prefix
// with a note, never an error.
TEST(CheckpointTest, TornDeltaTailDegradesWithNote) {
  TempCheckpoint File("ckpt-torn-delta");
  CheckpointHost A(4);
  A.touchAll();
  A.save(File.path());
  *A.Cells[0] = 11;
  A.appendDelta(File.path());
  std::string AfterFirst = A.fingerprint();
  *A.Cells[1] = 22;
  A.appendDelta(File.path());

  std::vector<uint8_t> Log = slurp(deltaLogPath(File.path()));
  spit(deltaLogPath(File.path()),
       std::vector<uint8_t>(Log.begin(),
                            Log.begin() + static_cast<long>(Log.size() - 5)));

  CheckpointHost B(4);
  B.restore(File.path());
  EXPECT_FALSE(B.RestoreNote.empty());
  EXPECT_EQ(AfterFirst, B.fingerprint());
}

} // namespace
