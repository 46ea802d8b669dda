//===- Pool.h - Chunked slab behind the graph's handle tables ---*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Slab<T>, the chunked storage behind the dependency graph's NodeId and
/// EdgeId tables (graph/GraphStore.h). The tables keep their own free
/// lists, so a freed node or edge slot is reused by the next allocation;
/// nothing is returned to the system until the table dies. Edge slots turn
/// over only when a re-execution reads something new or stops reading
/// something (a re-read keeps its edge) and when nodes die.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_SUPPORT_POOL_H
#define ALPHONSE_SUPPORT_POOL_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace alphonse {

/// Chunked, index-addressable slab: the storage behind the graph's dense
/// NodeId/EdgeId tables (DESIGN.md "Engine layering and handle-based
/// storage"). Slots are addressed by dense 32-bit indices and live in
/// fixed-size chunks whose addresses never move (unlike std::vector, a
/// reference taken before a push() stays valid afterwards). Every slot
/// carries an 8-bit generation stored in the same chunk, so one
/// allocation backs both and one directory lookup resolves a slot
/// together with its generation. Slots and generations are
/// value-initialized; recycling is the owner's job (the tables keep
/// explicit free lists and advance the generations).
template <typename T> class Slab {
public:
  /// 32 slots per chunk, sized for the smallest graphs: a session-sized
  /// graph of a few dozen nodes and edges reserves one chunk per table
  /// (about 1 KB in all), while a large graph pays one allocation and one
  /// 8-byte directory entry per 32 slots, small next to the slots.
  static constexpr uint32_t ChunkSlotsLog2 = 5;
  static constexpr uint32_t ChunkSlots = 1u << ChunkSlotsLog2;

  /// One slot together with its generation.
  struct Ref {
    T &Slot;
    uint8_t &Gen;
  };
  struct ConstRef {
    const T &Slot;
    const uint8_t &Gen;
  };

  Slab() = default;
  Slab(const Slab &) = delete;
  Slab &operator=(const Slab &) = delete;

  /// Slots ever appended (free slots included; never shrinks).
  uint32_t size() const { return Count; }

  T &operator[](uint32_t Index) {
    return chunk(Index).Slots[Index & (ChunkSlots - 1)];
  }
  const T &operator[](uint32_t Index) const {
    return chunk(Index).Slots[Index & (ChunkSlots - 1)];
  }

  /// Slot \p Index and its generation.
  Ref at(uint32_t Index) {
    Chunk &C = chunk(Index);
    uint32_t I = Index & (ChunkSlots - 1);
    return {C.Slots[I], C.Gens[I]};
  }
  ConstRef at(uint32_t Index) const {
    const Chunk &C = chunk(Index);
    uint32_t I = Index & (ChunkSlots - 1);
    return {C.Slots[I], C.Gens[I]};
  }

  /// Appends one value-initialized slot (generation 0) and returns its
  /// index.
  uint32_t push() {
    if ((Count & (ChunkSlots - 1)) == 0)
      Dir.push_back(std::make_unique<Chunk>());
    return Count++;
  }

  /// Bytes reserved by the allocated chunks (slots and generations).
  size_t bytesReserved() const { return Dir.size() * sizeof(Chunk); }

private:
  /// Generations sit after the slots, so a chunk of 8-byte pointers or
  /// 24-byte edges has no padding: 32 * (sizeof(T) + 1) bytes.
  struct Chunk {
    T Slots[ChunkSlots];
    uint8_t Gens[ChunkSlots];
  };

  Chunk &chunk(uint32_t Index) const { return *Dir[Index >> ChunkSlotsLog2]; }

  /// The chunk directory, grown on demand rather than sized for the full
  /// 24-bit index space up front: a graph's baseline footprint is what
  /// bounds how many embedded engines one process can hold (DESIGN.md
  /// "Session service"). Growing it moves only the pointers; the chunks
  /// stay put.
  std::vector<std::unique_ptr<Chunk>> Dir;
  uint32_t Count = 0;
};

} // namespace alphonse

#endif // ALPHONSE_SUPPORT_POOL_H
