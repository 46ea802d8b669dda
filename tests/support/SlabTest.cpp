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
/// accounting the memory gauges publish, and lock-free readers racing
/// the growing writer.
///
//===----------------------------------------------------------------------===//

#include "support/Pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

namespace alphonse {
namespace {

using U64Slab = Slab<uint64_t>;
constexpr uint32_t ChunkSlots = U64Slab::ChunkSlots;
/// Fills several chunks past the initial directory, forcing two
/// directory doublings, and ends mid-chunk.
constexpr uint32_t Many = U64Slab::InitialDirChunks * ChunkSlots * 4 + 3;

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

TEST(SlabTest, ReadersRacePublishedIndicesAgainstTheWriter) {
  // The writer publishes each slot (value and generation) through a
  // release store of the count; the reader resolves only published
  // indices while the writer keeps adding chunks and replacing the
  // directory underneath it. Meaningful under ThreadSanitizer.
  constexpr uint32_t Total = 1u << 16;
  U64Slab S;
  std::atomic<uint32_t> Published{0};
  std::atomic<uint32_t> Bad{0};
  std::thread Reader([&] {
    uint32_t Seen = 0;
    while (Seen < Total) {
      Seen = Published.load(std::memory_order_acquire);
      // The newest slots sit in the chunk being filled; slot 0 and the
      // midpoint are usually resolved through a retired directory copy.
      uint32_t From = Seen > 64 ? Seen - 64 : 0;
      for (uint32_t I = From; I < Seen; ++I) {
        auto [Slot, Gen] = S.at(I);
        if (Slot != I * 3u + 1 || Gen != genFor(I))
          Bad.fetch_add(1, std::memory_order_relaxed);
      }
      for (uint32_t I : {0u, Seen / 2})
        if (I < Seen && S[I] != I * 3u + 1)
          Bad.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (uint32_t I = 0; I < Total; ++I) {
    auto [Slot, Gen] = S.at(S.push());
    Slot = I * 3u + 1;
    Gen = genFor(I);
    Published.store(I + 1, std::memory_order_release);
  }
  Reader.join();
  EXPECT_EQ(Bad.load(), 0u);
  EXPECT_EQ(S.size(), Total);
}

} // namespace
} // namespace alphonse
