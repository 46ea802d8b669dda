//===- Compiler.h - Alphonse-L AST to bytecode lowering ---------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers Sema-checked (and usually transformed) Alphonse-L procedure
/// bodies and global initializers to the register bytecode in Bytecode.h,
/// and computes the transitive side-effect mask the interpreter uses to
/// decide which procedure nodes may drop their serial pin and join
/// parallel waves (DESIGN.md "Bytecode compilation and per-thread
/// execution").
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_INTERP_BYTECODE_COMPILER_H
#define ALPHONSE_INTERP_BYTECODE_COMPILER_H

#include "interp/bytecode/Bytecode.h"
#include "lang/Sema.h"
#include "support/Diagnostics.h"

#include <memory>
#include <vector>

namespace alphonse::interp::bytecode {

/// Registers one chunk can address: operands are 16 bits wide.
constexpr int MaxRegs = 0xFFFF;

/// The compiled module: one chunk and one transitive effect mask per
/// procedure, both indexed by ProcDecl::Index, plus the module-initializer
/// chunk. Derived state — rebuilt from (Module, SemaInfo) whenever an
/// interpreter is constructed; never checkpointed.
class BytecodeModule {
public:
  /// The compiled body of \p P.
  const Chunk &chunk(const lang::ProcDecl *P) const {
    return Chunks[static_cast<size_t>(P->Index)];
  }

  /// Transitive ProcEffect mask of \p P.
  uint8_t effects(const lang::ProcDecl *P) const {
    return Effects[static_cast<size_t>(P->Index)];
  }

  /// True when instances of \p P are side-effect-free and may re-execute
  /// on parallel wave workers (serial-pin relaxation criterion).
  bool parallelSafe(const lang::ProcDecl *P) const {
    return effects(P) == EffNone;
  }

  std::vector<Chunk> Chunks;
  std::vector<uint8_t> Effects;
  /// The global initializers in declaration order, each ending in an
  /// untracked StoreGlobal. The interpreter's constructor runs it once,
  /// with conventional dispatch.
  Chunk Init;
};

/// Compiles every procedure of \p M and its global initializers. \p M and
/// \p Info must outlive the result (chunks hold ProcDecl / ObjectTypeInfo
/// pointers into them). A body that needs more than MaxRegs registers is
/// an error in \p Diags, and the result is then null.
std::unique_ptr<BytecodeModule> compileModule(const lang::Module &M,
                                              const lang::SemaInfo &Info,
                                              DiagnosticEngine &Diags);

} // namespace alphonse::interp::bytecode

#endif // ALPHONSE_INTERP_BYTECODE_COMPILER_H
