//===- SlabTest.cpp - Chunked slab tests ----------------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of Slab<T>, the chunked storage behind the graph's node and edge
/// tables: index resolution across chunk and directory growth, stable slot
/// addresses, generations paired with their slots, the reserved-bytes
/// accounting the memory gauges publish, and growth across handoffs from
/// one owning thread to the next.
///
//===----------------------------------------------------------------------===//

#include "support/Pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

namespace alphonse {
namespace {

using U64Slab = Slab<uint64_t>;
constexpr uint32_t ChunkSlots = U64Slab::ChunkSlots;
/// Fills 64 chunks, growing the directory several times, and ends
/// mid-chunk.
constexpr uint32_t Many = 64 * ChunkSlots + 3;

uint8_t genFor(uint32_t Index) { return static_cast<uint8_t>(Index % 255 + 1); }

TEST(SlabTest, IndicesResolveAcrossChunkAndDirectoryGrowth) {
  U64Slab S;
  for (uint32_t I = 0; I < Many; ++I) {
    ASSERT_EQ(S.push(), I);
    S[I] = I * 7u + 1;
  }
  EXPECT_EQ(S.size(), Many);
  for (uint32_t I = 0; I < Many; ++I)
    ASSERT_EQ(S[I], I * 7u + 1) << "index " << I;
}

TEST(SlabTest, ReferencesSurviveGrowth) {
  U64Slab S;
  for (uint32_t I = 0; I < ChunkSlots; ++I)
    S.push();
  uint64_t &First = S[0];
  uint64_t &Last = S[ChunkSlots - 1];
  uint8_t &FirstGen = S.at(0).Gen;
  First = 42;
  Last = 43;
  FirstGen = 9;
  for (uint32_t I = ChunkSlots; I < Many; ++I)
    S.push();
  EXPECT_EQ(&S[0], &First);
  EXPECT_EQ(&S[ChunkSlots - 1], &Last);
  EXPECT_EQ(&S.at(0).Gen, &FirstGen);
  EXPECT_EQ(S[0], 42u);
  EXPECT_EQ(S[ChunkSlots - 1], 43u);
  EXPECT_EQ(S.at(0).Gen, 9u);
}

TEST(SlabTest, GenerationsStayPairedWithTheirSlots) {
  U64Slab S;
  for (uint32_t I = 0; I < Many; ++I) {
    auto [Slot, Gen] = S.at(S.push());
    // Fresh slots are value-initialized, generation included.
    ASSERT_EQ(Slot, 0u);
    ASSERT_EQ(Gen, 0u);
    Slot = I;
    Gen = genFor(I);
  }
  const U64Slab &C = S;
  for (uint32_t I = 0; I < Many; ++I) {
    auto [Slot, Gen] = C.at(I);
    ASSERT_EQ(&Slot, &C[I]);
    ASSERT_EQ(Slot, I);
    ASSERT_EQ(Gen, genFor(I)) << "index " << I;
  }
}

TEST(SlabTest, BytesReservedCountsAllocatedChunks) {
  // A chunk holds ChunkSlots slots plus one generation byte per slot; for
  // these element sizes the layout has no padding.
  struct Rec {
    uint32_t F[6];
  };
  U64Slab S;
  Slab<Rec> R;
  EXPECT_EQ(S.bytesReserved(), 0u);
  EXPECT_EQ(R.bytesReserved(), 0u);
  for (uint32_t N = 1; N <= 3 * ChunkSlots + 1; ++N) {
    S.push();
    R.push();
    size_t Chunks = (N + ChunkSlots - 1) / ChunkSlots;
    ASSERT_EQ(S.bytesReserved(), Chunks * ChunkSlots * (sizeof(uint64_t) + 1));
    ASSERT_EQ(R.bytesReserved(), Chunks * ChunkSlots * (sizeof(Rec) + 1));
  }
}

TEST(SlabTest, GrowsAcrossThreadHandoffs) {
  // A slab belongs to one graph, and one thread at a time drives a graph,
  // but not always the same one: the session service hands a session to
  // whichever pool worker drains it. Each round here runs on a fresh
  // thread, checks every slot the earlier rounds wrote, and keeps
  // growing the slab (chunks and directory) from where they stopped.
  // Meaningful under ThreadSanitizer.
  constexpr uint32_t Rounds = 8;
  constexpr uint32_t PerRound = Many / Rounds + 1;
  U64Slab S;
  uint32_t Bad = 0;
  for (uint32_t R = 0; R < Rounds; ++R) {
    std::thread Owner([&] {
      for (uint32_t I = 0; I < S.size(); ++I) {
        auto [Slot, Gen] = S.at(I);
        if (Slot != I * 3u + 1 || Gen != genFor(I))
          ++Bad;
      }
      for (uint32_t K = 0; K < PerRound; ++K) {
        uint32_t I = S.push();
        auto [Slot, Gen] = S.at(I);
        Slot = I * 3u + 1;
        Gen = genFor(I);
      }
    });
    Owner.join();
  }
  EXPECT_EQ(Bad, 0u);
  EXPECT_EQ(S.size(), Rounds * PerRound);
}

} // namespace
} // namespace alphonse
