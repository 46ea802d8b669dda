//===- Bytecode.h - Alphonse-L register bytecode ----------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled form of an Alphonse-L procedure body (or of a module's
/// global initializers): a register bytecode Chunk (instruction stream +
/// constant pool + pre-resolved slot, global, field, type, procedure, and
/// method descriptors) executed by the reentrant VM in VM.h. Chunks are
/// *derived state*: compiled once per (module, SemaInfo) at interpreter
/// construction, never serialized — a checkpoint restore revalidates the
/// module fingerprint and reuses the chunks compiled for that module.
///
/// Everything name-shaped is resolved at compile time (frame slot indices,
/// global indices, field indices, vtable slots, callee ProcDecls), so the
/// VM's hot loop does no map lookups and no AST walks; the only runtime
/// resolution left is dynamic method dispatch through the receiver's
/// vtable, which the language requires.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_INTERP_BYTECODE_BYTECODE_H
#define ALPHONSE_INTERP_BYTECODE_BYTECODE_H

#include "interp/Value.h"
#include "support/SourceLocation.h"

#include <cstdint>
#include <string>
#include <vector>

namespace alphonse::lang {
struct ProcDecl;
class ObjectTypeInfo;
} // namespace alphonse::lang

namespace alphonse::interp::bytecode {

/// Opcodes, with their operand conventions. R[x] is the current frame's
/// register x; registers 0..FrameSize-1 are the procedure's parameters,
/// locals, and FOR variables (same indices Sema assigned), the rest are
/// compiler temporaries.
#define ALPHONSE_BYTECODE_OPCODES(X)                                           \
  X(LoadConst)   /* R[A] <- Consts[Imm] */                                     \
  X(LoadInt)     /* R[A] <- integer(Imm) */                                    \
  X(LoadNil)     /* R[A] <- NIL */                                             \
  X(LoadBool)    /* R[A] <- boolean(B != 0) */                                 \
  X(Move)        /* R[A] <- R[B] */                                            \
  X(CastBool)    /* R[A] <- boolean(R[B].Bool) */                              \
  X(LoadGlobal)  /* R[A] <- globals[B]; FlagTracked records the access */      \
  X(StoreGlobal) /* globals[A] <- R[B] through modify */                      \
  X(LoadField)   /* R[A] <- R[B].fields[C]; Imm names the field (errors) */    \
  X(StoreField)  /* R[A].fields[C] <- R[B]; Imm names the field */             \
  X(NewObj)      /* R[A] <- NEW Types[Imm] */                                  \
  X(CheckRecv)   /* fail unless R[A] is an object (Imm: method name) */        \
  X(CallProc)    /* R[A] <- Procs[Imm](R[B..B+C)); FlagChecked */              \
  X(CallMethod)  /* R[A] <- R[B].m(R[B+1..B+C)); Imm: Methods idx */           \
  X(CallBuiltin) /* R[A] <- builtin Imm applied to R[B..B+C) */                \
  X(Add)         /* R[A] <- R[B] + R[C] (integers) */                          \
  X(Sub)                                                                       \
  X(Mul)                                                                       \
  X(Div)         /* fails on zero divisor */                                   \
  X(Mod)         /* fails on zero divisor */                                   \
  X(Concat)      /* R[A] <- R[B] & R[C] (texts) */                             \
  X(CmpEq)       /* R[A] <- boolean(R[B] == R[C]) (structural) */              \
  X(CmpNe)                                                                     \
  X(CmpLt)       /* integer comparisons */                                     \
  X(CmpLe)                                                                     \
  X(CmpGt)                                                                     \
  X(CmpGe)                                                                     \
  X(Neg)         /* R[A] <- -R[B] */                                           \
  X(Not)         /* R[A] <- boolean(!R[B].Bool) */                             \
  X(Jump)        /* pc <- Imm */                                               \
  X(JumpIfFalse) /* if !R[A].Bool then pc <- Imm */                            \
  X(JumpIfTrue)  /* if R[A].Bool then pc <- Imm */                             \
  X(ForPrep)     /* R[A] <- integer(R[A].Int); R[B] <- integer(R[B].Int) */    \
  X(ForTest)     /* if R[A].Int > R[B].Int then pc <- Imm */                   \
  X(ForStep)     /* R[A] <- integer(R[A].Int + 1); pc <- Imm */                \
  X(EnterUnchecked) /* push a null dependency-recording frame */               \
  X(LeaveUnchecked) /* pop it */                                               \
  X(Ret)         /* return R[A] */                                             \
  X(RetNil)      /* return NIL (a bare RETURN) */                              \
  X(RetDefault)  /* fell off the end: return the declared type's default */

enum class OpCode : uint8_t {
#define ALPHONSE_BYTECODE_OP(Name) Name,
  ALPHONSE_BYTECODE_OPCODES(ALPHONSE_BYTECODE_OP)
#undef ALPHONSE_BYTECODE_OP
};

/// Printable opcode name.
const char *opcodeName(OpCode Op);

/// Flag bits (Instr::Flags).
enum : uint8_t {
  /// Loads/stores: the site was flagged by the Section 5 transformer
  /// (access/modify protocol applies; a store needs no check, since only
  /// a flagged load gives a location a graph node). Calls: the site is
  /// checked (not inside (*UNCHECKED*) at transform time).
  FlagTracked = 1 << 0,
};

/// One fixed-width instruction. A/B/C are register (or global) indices;
/// Imm is a jump target, pool index, or immediate integer.
struct Instr {
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  OpCode Op;
  uint8_t Flags = 0;
  int32_t Imm = 0;
};
static_assert(sizeof(Instr) == 12, "Instr must stay three packed words");

/// A pre-resolved callee: the declaration (its Pragma drives the
/// incremental call protocol at the site).
struct ProcRef {
  const lang::ProcDecl *P = nullptr;
};

/// A pre-resolved method site: the vtable slot plus the source name for
/// error messages.
struct MethodRef {
  int Slot = -1;
  std::string Name;
};

/// The compiled form of one procedure body or of the initializers.
struct Chunk {
  std::string Name;      ///< Procedure name (diagnostics, disassembly).
  std::string FaultSite; ///< "vm.<Name>": hit once per VM execution.
  SourceLocation Loc;    ///< Declaration site (depth-limit errors).

  std::vector<Instr> Code;
  /// Source location per instruction (runtime error attribution).
  std::vector<SourceLocation> Locs;

  std::vector<Value> Consts;
  std::vector<std::string> Names; ///< Field/method names for errors.
  std::vector<const lang::ObjectTypeInfo *> Types;
  std::vector<ProcRef> Procs;
  std::vector<MethodRef> Methods;

  /// Initial values for frame registers [NumParams, FrameSize): locals
  /// default-initialized by declared type, FOR variables NIL. Indexed
  /// from register 0 (the parameter prefix is unused; arguments overwrite
  /// it).
  std::vector<Value> SlotDefaults;
  /// Value of a fall-off-the-end return (defaultValue of the declared
  /// return type).
  Value RetDefault;

  uint16_t NumParams = 0;
  uint16_t FrameSize = 0; ///< Sema slots (params + locals + FOR vars).
  uint16_t NumRegs = 0;   ///< FrameSize + compiler temporaries.
};

/// Human-readable disassembly of one chunk (alphonsec --dump-bytecode).
std::string disassemble(const Chunk &C);

} // namespace alphonse::interp::bytecode

#endif // ALPHONSE_INTERP_BYTECODE_BYTECODE_H
