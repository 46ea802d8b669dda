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
#include "support/FaultInjector.h"

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

TEST(CheckpointTest, RoundtripPreservesConsistencyBits) {
  TempCheckpoint File("ckpt-consistency");
  CheckpointHost A(4);
  A.touchAll();
  *A.Cells[2] = 99; // Sums 2 and 3 go stale; 0 and 1 stay consistent.
  A.save(File.path());

  CheckpointHost B(4);
  B.restore(File.path());
  EXPECT_TRUE(B.Sum.hasCachedValue(0));
  EXPECT_TRUE(B.Sum.hasCachedValue(1));
  EXPECT_FALSE(B.Sum.hasCachedValue(2));
  EXPECT_FALSE(B.Sum.hasCachedValue(3));
  EXPECT_EQ(B.Sum(3), 3 + 0 + 0 + 99 + 0);
}

TEST(CheckpointTest, RoundtripPreservesQuarantine) {
  TempCheckpoint File("ckpt-quarantine");
  CheckpointHost A(3, EvalStrategy::Eager);
  A.touchAll();
  {
    FaultInjector FI;
    FI.armThrow("sum", 1);
    FaultInjector::Scope Scope(FI);
    *A.Cells[0] = 5; // Eager propagation re-runs a sum; it throws.
    A.RT.pump();     // The faulting instance is quarantined mid-drain.
  }
  A.RT.pump();
  ASSERT_GT(A.RT.graph().numQuarantined(), 0u);
  size_t NumQuarantined = A.RT.graph().numQuarantined();
  A.save(File.path());

  CheckpointHost B(3, EvalStrategy::Eager);
  B.restore(File.path());
  EXPECT_EQ(B.RT.graph().numQuarantined(), NumQuarantined);
  EXPECT_TRUE(B.RT.graph().verify().empty());
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
  // Format version 3 dropped the serial-pin bit from the node flags;
  // version-2 files are refused like any other old version.
  TempCheckpoint File("ckpt-version2");
  {
    CheckpointHost A(3);
    A.touchAll();
    A.save(File.path());
  }
  std::vector<uint8_t> Bytes = slurp(File.path());
  ASSERT_GT(Bytes.size(), 12u);
  ASSERT_EQ(Bytes[8], 3u);
  Bytes[8] = 2;
  spit(File.path(), Bytes);
  try {
    CheckpointHost B(3);
    B.restore(File.path());
    FAIL() << "a version-2 file must be refused";
  } catch (const CheckpointError &E) {
    EXPECT_EQ(E.code(), CkptError::BadVersion);
  }
}

TEST(CheckpointTest, OldSerialFlagBitIsMalformed) {
  GraphSnapshot S;
  CkptNode N;
  N.IdBits = 1;
  N.Consistent = 1;
  S.Nodes.push_back(N);
  ByteWriter W;
  S.encode(W);
  std::vector<uint8_t> Bytes = W.take();
  // Three u64 counters, the u32 node count, the node's u32 id and its
  // kind and strategy bytes precede its flag byte.
  const size_t FlagAt = 3 * 8 + 4 + 4 + 2;
  ASSERT_GT(Bytes.size(), FlagAt);
  ASSERT_EQ(Bytes[FlagAt], 1u);
  {
    ByteReader R(Bytes.data(), Bytes.size());
    EXPECT_NO_THROW(GraphSnapshot::decode(R));
  }
  Bytes[FlagAt] |= 2; // The serial bit of format version 2.
  ByteReader R(Bytes.data(), Bytes.size());
  try {
    GraphSnapshot::decode(R);
    FAIL() << "a node flag byte with the old serial bit must be refused";
  } catch (const CheckpointError &E) {
    EXPECT_EQ(E.code(), CkptError::Malformed);
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
