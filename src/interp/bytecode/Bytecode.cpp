//===- Bytecode.cpp - opcode names, effect strings, disassembler ----------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "interp/bytecode/Bytecode.h"

#include "lang/AST.h"
#include "lang/Types.h"

#include <cstdarg>
#include <cstdio>

namespace alphonse::interp::bytecode {

const char *opcodeName(OpCode Op) {
  switch (Op) {
#define ALPHONSE_BYTECODE_OP(Name)                                             \
  case OpCode::Name:                                                           \
    return #Name;
    ALPHONSE_BYTECODE_OPCODES(ALPHONSE_BYTECODE_OP)
#undef ALPHONSE_BYTECODE_OP
  }
  return "<bad-op>";
}

namespace {

const char *builtinName(int32_t Index) {
  switch (Index) {
  case 0:
    return "print";
  case 1:
    return "max";
  case 2:
    return "min";
  case 3:
    return "abs";
  case 4:
    return "fmt";
  default:
    return "<bad-builtin>";
  }
}

std::string fmt(const char *Format, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Format);
  vsnprintf(Buf, sizeof(Buf), Format, Args);
  va_end(Args);
  return Buf;
}

} // namespace

std::string disassemble(const Chunk &C) {
  std::string Out = C.Name + ": " + std::to_string(C.Code.size()) +
                    " instrs, params " + std::to_string(C.NumParams) +
                    ", frame " + std::to_string(C.FrameSize) + ", regs " +
                    std::to_string(C.NumRegs) + "\n";
  for (size_t I = 0; I < C.Code.size(); ++I) {
    const Instr &In = C.Code[I];
    Out += fmt("  %4zu  %-14s", I, opcodeName(In.Op));
    switch (In.Op) {
    case OpCode::LoadConst:
      Out += fmt("r%u <- %s", In.A,
                 C.Consts[static_cast<size_t>(In.Imm)].render().c_str());
      break;
    case OpCode::LoadInt:
      Out += fmt("r%u <- %d", In.A, In.Imm);
      break;
    case OpCode::LoadNil:
      Out += fmt("r%u <- NIL", In.A);
      break;
    case OpCode::LoadBool:
      Out += fmt("r%u <- %s", In.A, In.B ? "TRUE" : "FALSE");
      break;
    case OpCode::Move:
    case OpCode::CastBool:
    case OpCode::Neg:
    case OpCode::Not:
      Out += fmt("r%u <- r%u", In.A, In.B);
      break;
    case OpCode::LoadGlobal:
      Out += fmt("r%u <- g%u", In.A, In.B);
      break;
    case OpCode::StoreGlobal:
      Out += fmt("g%u <- r%u", In.A, In.B);
      break;
    case OpCode::LoadField:
      Out += fmt("r%u <- r%u.%s", In.A, In.B,
                 C.Names[static_cast<size_t>(In.Imm)].c_str());
      break;
    case OpCode::StoreField:
      Out += fmt("r%u.%s <- r%u", In.A,
                 C.Names[static_cast<size_t>(In.Imm)].c_str(), In.B);
      break;
    case OpCode::NewObj:
      Out += fmt("r%u <- NEW %s", In.A,
                 C.Types[static_cast<size_t>(In.Imm)]->Name.c_str());
      break;
    case OpCode::CheckRecv:
      Out += fmt("r%u ('%s')", In.A,
                 C.Names[static_cast<size_t>(In.Imm)].c_str());
      break;
    case OpCode::CallProc:
      Out += fmt("r%u <- %s(r%u..r%u)", In.A,
                 C.Procs[static_cast<size_t>(In.Imm)].P->Name.c_str(), In.B,
                 In.B + In.C);
      break;
    case OpCode::CallMethod:
      Out += fmt("r%u <- r%u.%s(r%u..r%u) [slot %d]", In.A, In.B,
                 C.Methods[static_cast<size_t>(In.Imm)].Name.c_str(), In.B + 1,
                 In.B + In.C, C.Methods[static_cast<size_t>(In.Imm)].Slot);
      break;
    case OpCode::CallBuiltin:
      Out += fmt("r%u <- %s(r%u..r%u)", In.A, builtinName(In.Imm), In.B,
                 In.B + In.C);
      break;
    case OpCode::Add:
    case OpCode::Sub:
    case OpCode::Mul:
    case OpCode::Div:
    case OpCode::Mod:
    case OpCode::Concat:
    case OpCode::CmpEq:
    case OpCode::CmpNe:
    case OpCode::CmpLt:
    case OpCode::CmpLe:
    case OpCode::CmpGt:
    case OpCode::CmpGe:
      Out += fmt("r%u <- r%u, r%u", In.A, In.B, In.C);
      break;
    case OpCode::Jump:
      Out += fmt("-> %d", In.Imm);
      break;
    case OpCode::JumpIfFalse:
      Out += fmt("if !r%u -> %d", In.A, In.Imm);
      break;
    case OpCode::JumpIfTrue:
      Out += fmt("if r%u -> %d", In.A, In.Imm);
      break;
    case OpCode::ForPrep:
      Out += fmt("ctr r%u, lim r%u", In.A, In.B);
      break;
    case OpCode::ForTest:
      Out += fmt("if r%u > r%u -> %d", In.A, In.B, In.Imm);
      break;
    case OpCode::ForStep:
      Out += fmt("r%u++ -> %d", In.A, In.Imm);
      break;
    case OpCode::EnterUnchecked:
    case OpCode::LeaveUnchecked:
    case OpCode::RetNil:
    case OpCode::RetDefault:
      break;
    case OpCode::Ret:
      Out += fmt("r%u", In.A);
      break;
    }
    if (In.Flags & FlagTracked)
      Out += "  [tracked]";
    Out += "\n";
  }
  return Out;
}

} // namespace alphonse::interp::bytecode
