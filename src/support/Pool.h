//===- Pool.h - Bump arena and free-list object pool ------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Allocation fast path for the dependency graph's hot bookkeeping
/// (DESIGN.md "Parallel propagation", allocation section). Edge churn
/// dominates beginExecution/endExecution — every re-execution retracts and
/// re-records the instance's referenced-argument set — so Edge objects come
/// from Pool<Edge>: a type-local free list layered over BumpArena chunks.
/// Allocation is a pointer bump or a free-list pop; deallocation is a
/// free-list push; nothing is returned to the system until the pool dies.
///
/// BumpArena is also usable on its own for per-node bookkeeping whose
/// lifetime matches the graph's.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_SUPPORT_POOL_H
#define ALPHONSE_SUPPORT_POOL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace alphonse {

/// Chunked bump allocator: allocate-only, everything freed at destruction.
class BumpArena {
public:
  explicit BumpArena(size_t ChunkBytes = 64 * 1024)
      : ChunkBytes(ChunkBytes) {}

  BumpArena(const BumpArena &) = delete;
  BumpArena &operator=(const BumpArena &) = delete;

  /// Returns \p Size bytes aligned to \p Align (never null; grows a new
  /// chunk when the current one is exhausted).
  void *allocate(size_t Size, size_t Align) {
    uintptr_t P = (Cur + (Align - 1)) & ~static_cast<uintptr_t>(Align - 1);
    if (P + Size > End) {
      size_t Want = Size + Align > ChunkBytes ? Size + Align : ChunkBytes;
      Chunks.push_back(std::make_unique<std::byte[]>(Want));
      TotalBytes += Want;
      Cur = reinterpret_cast<uintptr_t>(Chunks.back().get());
      End = Cur + Want;
      P = (Cur + (Align - 1)) & ~static_cast<uintptr_t>(Align - 1);
    }
    Cur = P + Size;
    return reinterpret_cast<void *>(P);
  }

  /// Typed allocation + construction.
  template <typename T, typename... Args> T *create(Args &&...A) {
    return new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(A)...);
  }

  size_t bytesReserved() const { return TotalBytes; }
  size_t numChunks() const { return Chunks.size(); }

private:
  size_t ChunkBytes;
  std::vector<std::unique_ptr<std::byte[]>> Chunks;
  uintptr_t Cur = 0;
  uintptr_t End = 0;
  size_t TotalBytes = 0;
};

/// Free-list object pool over a BumpArena. T must be trivially
/// destructible (slots are recycled without running destructors) and at
/// least pointer-sized (the free list lives inside dead slots).
template <typename T> class Pool {
  static_assert(sizeof(T) >= sizeof(void *),
                "pooled objects must fit a free-list link");
  static_assert(std::is_trivially_destructible_v<T>,
                "pooled objects are recycled without destruction");

public:
  Pool() = default;

  Pool(const Pool &) = delete;
  Pool &operator=(const Pool &) = delete;

  /// True when the next create() will be served from the free list.
  bool hasFree() const { return FreeList != nullptr; }

  /// Allocates and value-initializes one T.
  T *create() {
    if (FreeList) {
      void *Slot = FreeList;
      FreeList = *static_cast<void **>(Slot);
      ++NumReused;
      return new (Slot) T();
    }
    ++NumCreated;
    return new (Arena.allocate(sizeof(T), alignof(T))) T();
  }

  /// Returns \p P's slot to the free list.
  void destroy(T *P) {
    *reinterpret_cast<void **>(P) = FreeList;
    FreeList = P;
  }

  /// Slots ever bump-allocated from the arena.
  uint64_t numCreated() const { return NumCreated; }
  /// Allocations served by recycling a freed slot.
  uint64_t numReused() const { return NumReused; }

  const BumpArena &arena() const { return Arena; }

private:
  BumpArena Arena;
  void *FreeList = nullptr;
  uint64_t NumCreated = 0;
  uint64_t NumReused = 0;
};

/// Chunked, index-addressable slab: the storage behind the graph's dense
/// NodeId/EdgeId tables (DESIGN.md "Engine layering and handle-based
/// storage"). Slots are addressed by dense 32-bit indices, live in
/// fixed-size chunks whose addresses never move (unlike std::vector, a
/// reference taken before a push() stays valid afterwards), and the chunk
/// directory is an array of atomic pointers, so readers may resolve
/// indices lock-free while one externally serialized writer grows the
/// slab. Every slot carries an 8-bit generation stored in the same chunk,
/// so one allocation backs both and one directory walk resolves a slot
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
  /// Geometry covers the full 24-bit handle index space.
  static constexpr uint32_t MaxChunks = 1u << (24 - ChunkSlotsLog2);
  /// Directory entries allocated up front: 16 chunks, the first 512
  /// slots. A small graph never grows its directory; a large one doubles
  /// it a few times (the retired copies cost about as much again as the
  /// final directory, 8 bytes per chunk).
  static constexpr uint32_t InitialDirChunks = 16;

  /// One slot together with its generation.
  struct Ref {
    T &Slot;
    uint8_t &Gen;
  };
  struct ConstRef {
    const T &Slot;
    const uint8_t &Gen;
  };

  Slab() { Dir.store(newDir(InitialDirChunks), std::memory_order_relaxed); }

  ~Slab() {
    std::atomic<Chunk *> *D = Dir.load(std::memory_order_relaxed);
    for (uint32_t I = 0; I < DirCap; ++I)
      delete D[I].load(std::memory_order_relaxed);
    delete[] D;
    for (std::atomic<Chunk *> *Old : Retired)
      delete[] Old;
  }

  Slab(const Slab &) = delete;
  Slab &operator=(const Slab &) = delete;

  /// Slots ever appended (free slots included; never shrinks).
  uint32_t size() const { return Count.load(std::memory_order_acquire); }

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
  /// index. Writer-side only: calls must be externally serialized (the
  /// graph's state lock).
  uint32_t push() {
    uint32_t Index = Count.load(std::memory_order_relaxed);
    uint32_t C = Index >> ChunkSlotsLog2;
    if ((Index & (ChunkSlots - 1)) == 0) {
      if (C == DirCap)
        growDir();
      Dir.load(std::memory_order_relaxed)[C].store(
          new Chunk(), std::memory_order_release);
      ++NumChunks;
    }
    Count.store(Index + 1, std::memory_order_release);
    return Index;
  }

  /// Bytes reserved by the allocated chunks (slots and generations).
  size_t bytesReserved() const {
    return static_cast<size_t>(NumChunks) * sizeof(Chunk);
  }

private:
  /// Generations sit after the slots, so a chunk of 8-byte pointers or
  /// 24-byte edges has no padding: 32 * (sizeof(T) + 1) bytes.
  struct Chunk {
    T Slots[ChunkSlots];
    uint8_t Gens[ChunkSlots];
  };

  Chunk &chunk(uint32_t Index) const {
    return *Dir.load(std::memory_order_acquire)[Index >> ChunkSlotsLog2].load(
        std::memory_order_acquire);
  }

  static std::atomic<Chunk *> *newDir(uint32_t Cap) {
    std::atomic<Chunk *> *D = new std::atomic<Chunk *>[Cap];
    for (uint32_t I = 0; I < Cap; ++I)
      D[I].store(nullptr, std::memory_order_relaxed);
    return D;
  }

  /// Doubles the chunk directory. The old directory is retired, not
  /// freed: a concurrent reader that loaded Dir just before the swap may
  /// still be indexing into it, and every index it can legally hold
  /// (published before the grow) resolves identically through either
  /// directory — chunks never move. Retired directories are reclaimed at
  /// destruction. Readers needing an index minted after the grow
  /// observed its publication, which happened after the release store of
  /// the new directory, so their acquire load of Dir sees the new one.
  void growDir() {
    uint32_t NewCap = DirCap * 2 < MaxChunks ? DirCap * 2 : MaxChunks;
    std::atomic<Chunk *> *New = newDir(NewCap);
    std::atomic<Chunk *> *Old = Dir.load(std::memory_order_relaxed);
    for (uint32_t I = 0; I < DirCap; ++I)
      New[I].store(Old[I].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    Retired.push_back(Old);
    Dir.store(New, std::memory_order_release);
    DirCap = NewCap;
  }

  /// The chunk directory is heap-allocated and grown on demand (doubling
  /// from InitialDirChunks) rather than sized for the full 24-bit index
  /// space up front: a graph's baseline footprint is what bounds how many
  /// embedded engines one process can hold (DESIGN.md "Session service"),
  /// and an embedded full-space directory would cost 4 MB per slab at
  /// this chunk granularity. Resolution pays one extra dependent load
  /// over an embedded array; measured against bench_space/bench_overhead
  /// this is inside run-to-run noise.
  std::atomic<std::atomic<Chunk *> *> Dir;
  std::atomic<uint32_t> Count{0};
  uint32_t DirCap = InitialDirChunks;
  uint32_t NumChunks = 0;
  std::vector<std::atomic<Chunk *> *> Retired;
};

} // namespace alphonse

#endif // ALPHONSE_SUPPORT_POOL_H
