//===- Compiler.h - Alphonse-L AST to bytecode lowering ---------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers Sema-checked (and usually transformed) Alphonse-L procedure
/// bodies to the register bytecode in Bytecode.h, and computes the
/// transitive side-effect mask the interpreter uses to decide which
/// procedure nodes may drop their serial pin and join parallel waves
/// (DESIGN.md "Bytecode compilation and per-thread execution").
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_INTERP_BYTECODE_COMPILER_H
#define ALPHONSE_INTERP_BYTECODE_COMPILER_H

#include "interp/bytecode/Bytecode.h"
#include "lang/Sema.h"

#include <memory>
#include <unordered_map>

namespace alphonse::interp::bytecode {

/// The compiled module: one chunk per procedure plus the per-procedure
/// transitive effect masks. Derived state — rebuilt from (Module,
/// SemaInfo) whenever an interpreter is constructed; never checkpointed.
class BytecodeModule {
public:
  /// The compiled body of \p P, or nullptr if it was not compiled.
  const Chunk *chunk(const lang::ProcDecl *P) const {
    auto It = Chunks.find(P);
    return It == Chunks.end() ? nullptr : &It->second;
  }

  /// Transitive ProcEffect mask of \p P (EffNone for unknown procedures).
  uint8_t effects(const lang::ProcDecl *P) const {
    auto It = Effects.find(P);
    return It == Effects.end() ? uint8_t(EffNone) : It->second;
  }

  /// True when instances of \p P are side-effect-free and may re-execute
  /// on parallel wave workers (serial-pin relaxation criterion).
  bool parallelSafe(const lang::ProcDecl *P) const {
    return effects(P) == EffNone;
  }

  std::unordered_map<const lang::ProcDecl *, Chunk> Chunks;
  std::unordered_map<const lang::ProcDecl *, uint8_t> Effects;
};

/// Compiles every procedure of \p M. \p M and \p Info must outlive the
/// result (chunks hold ProcDecl / ObjectTypeInfo pointers into them).
std::unique_ptr<BytecodeModule> compileModule(const lang::Module &M,
                                              const lang::SemaInfo &Info);

} // namespace alphonse::interp::bytecode

#endif // ALPHONSE_INTERP_BYTECODE_COMPILER_H
