//===- VM.h - per-thread bytecode execution state ---------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reentrant VM's mutable execution state, one instance per evaluator
/// thread. Every worker gets its own register stack, frame top, and depth
/// counter, keyed by the same statistics shard id the runtime already
/// hands each thread — so concurrent wave drains never share mutable
/// interpreter state, and the only cross-thread traffic is the
/// tracked-read/-write protocol the graph mediates.
///
/// The dispatch loop itself is Interp::runChunk (VM.cpp): it needs the
/// interpreter's storage protocol and call machinery, so it lives as a
/// member of Interp rather than a free-standing class.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_INTERP_BYTECODE_VM_H
#define ALPHONSE_INTERP_BYTECODE_VM_H

#include "interp/Value.h"
#include "support/Statistics.h"

#include <array>
#include <vector>

namespace alphonse::interp::bytecode {

/// One thread's VM state: a register stack that frames carve contiguous
/// windows out of, plus the thread's VM call depth (checked against
/// Interp::MaxNestedCalls).
struct ExecState {
  std::vector<Value> Regs;
  size_t Top = 0; ///< First free register — the next frame's base.
  int Depth = 0;  ///< VM frames in flight on this thread.
};

/// The per-worker arena: slot 0 is the main thread, slots 1 and up are a
/// pool's workers — the same numbering Statistics uses, so lookup is the
/// thread-local shard id and no locking is ever involved. A thread only
/// ever touches its own ExecState.
class ExecArena {
public:
  ExecState &current() { return States[statShardId()]; }

private:
  std::array<ExecState, kStatShards> States;
};

} // namespace alphonse::interp::bytecode

#endif // ALPHONSE_INTERP_BYTECODE_VM_H
