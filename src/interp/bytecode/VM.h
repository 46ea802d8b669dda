//===- VM.h - bytecode execution state --------------------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reentrant VM's mutable execution state: the register stack, frame
/// top, and depth counter of one interpreter.
///
/// The dispatch loop itself is Interp::runChunk (VM.cpp): it needs the
/// interpreter's storage protocol and call machinery, so it lives as a
/// member of Interp rather than a free-standing class.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_INTERP_BYTECODE_VM_H
#define ALPHONSE_INTERP_BYTECODE_VM_H

#include "interp/Value.h"

#include <vector>

namespace alphonse::interp::bytecode {

/// The VM state: a register stack that frames carve contiguous windows
/// out of, plus the VM call depth (checked against Interp::MaxNestedCalls).
struct ExecState {
  std::vector<Value> Regs;
  size_t Top = 0; ///< First free register — the next frame's base.
  int Depth = 0;  ///< VM frames in flight.
};

} // namespace alphonse::interp::bytecode

#endif // ALPHONSE_INTERP_BYTECODE_VM_H
