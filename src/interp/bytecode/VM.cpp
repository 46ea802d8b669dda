//===- VM.cpp - the Alphonse-L bytecode interpreter loop ------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Interp::runChunk — the execution engine for compiled procedure bodies.
// Threaded dispatch (computed goto) under GCC/Clang, a switch loop
// elsewhere. The frame is a window [Base, Base + NumRegs) of the
// interpreter's ExecState register stack; nested calls push their window
// above and the guard restores Top/Depth on every exit path, including
// exception unwind.
//
// Every runtime error is raised with its construct's source location, and
// the differential tests hold the observable behavior (results, output,
// errors) to the graph-free reference evaluator in tests/interp. Global
// and heap accesses go through Interp's trackedRead/trackedWrite, in front
// of core's storage protocol (dependency recording, write journaling, and
// the quiescence cutoff).
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "interp/bytecode/Bytecode.h"
#include "interp/bytecode/VM.h"

#include "lang/AST.h"
#include "lang/Types.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <cassert>

using namespace alphonse::lang;

namespace alphonse::interp {

using namespace bytecode;

Value Interp::runChunk(const Chunk &Ch, const std::vector<Value> &Args) {
  ExecState &ES = BCState;
  if (ES.Depth >= MaxNestedCalls)
    fail(Ch.Loc,
         "call depth exceeded in '" + Ch.Name + "' (runaway recursion?)");
  // One injection site per VM execution ("vm.<proc>"). Throw/Kill act
  // here; Diverge belongs to instance-node sites (ArgTable's execute) and
  // is a no-op at the chunk level.
  (void)faultInjectionPoint(Ch.FaultSite);

  const size_t Base = ES.Top;
  if (ES.Regs.size() < Base + Ch.NumRegs)
    ES.Regs.resize(Base + Ch.NumRegs);

  // Restores the frame window and depth on every exit, exceptional or not.
  struct FrameGuard {
    ExecState &ES;
    size_t OldTop;
    FrameGuard(ExecState &ES, size_t NewTop) : ES(ES), OldTop(ES.Top) {
      ES.Top = NewTop;
      ++ES.Depth;
    }
    ~FrameGuard() {
      ES.Top = OldTop;
      --ES.Depth;
    }
  } Guard(ES, Base + Ch.NumRegs);

  assert(Args.size() == Ch.NumParams && "arity mismatch");
  for (size_t I = 0; I < Args.size(); ++I)
    ES.Regs[Base + I] = Args[I];
  for (size_t I = Args.size(); I < Ch.FrameSize; ++I)
    ES.Regs[Base + I] = Ch.SlotDefaults[I];
  // Temporaries [FrameSize, NumRegs) are written before read by
  // construction; whatever a previous frame left there is never observed.

  const Instr *CodeBase = Ch.Code.data();
  const Instr *IP = nullptr;
  size_t PC = 0;
  int Unchecked = 0; // Open EnterUnchecked frames, popped on unwind.

  // Registers are indexed through the vector every time: nested calls
  // (CallProc/CallMethod) may grow Regs and move its storage, so a cached
  // data pointer would dangle across any instruction that can re-enter.
  auto Loc = [&]() { return Ch.Locs[static_cast<size_t>(IP - CodeBase)]; };
#define VM_R(i) ES.Regs[Base + static_cast<size_t>(i)]

  try {
#if defined(__GNUC__) || defined(__clang__)
    static const void *const JumpTable[] = {
#define ALPHONSE_BYTECODE_OP(Name) &&L_##Name,
        ALPHONSE_BYTECODE_OPCODES(ALPHONSE_BYTECODE_OP)
#undef ALPHONSE_BYTECODE_OP
    };
#define VM_CASE(Name) L_##Name
#define VM_NEXT()                                                              \
  do {                                                                         \
    IP = CodeBase + PC++;                                                      \
    goto *JumpTable[static_cast<size_t>(IP->Op)];                              \
  } while (0)
    VM_NEXT();
#else
#define VM_CASE(Name) case OpCode::Name
#define VM_NEXT() goto vm_dispatch
  vm_dispatch:
    IP = CodeBase + PC++;
    switch (IP->Op) {
#endif

    VM_CASE(LoadConst) : {
      VM_R(IP->A) = Ch.Consts[static_cast<size_t>(IP->Imm)];
      VM_NEXT();
    }
    VM_CASE(LoadInt) : {
      VM_R(IP->A) = Value::integer(IP->Imm);
      VM_NEXT();
    }
    VM_CASE(LoadNil) : {
      VM_R(IP->A) = Value::nil();
      VM_NEXT();
    }
    VM_CASE(LoadBool) : {
      VM_R(IP->A) = Value::boolean(IP->B != 0);
      VM_NEXT();
    }
    VM_CASE(Move) : {
      VM_R(IP->A) = VM_R(IP->B);
      VM_NEXT();
    }
    VM_CASE(CastBool) : {
      VM_R(IP->A) = Value::boolean(VM_R(IP->B).Bool);
      VM_NEXT();
    }
    VM_CASE(LoadGlobal) : {
      VM_R(IP->A) =
          trackedRead(Globals[IP->B], (IP->Flags & FlagTracked) != 0);
      VM_NEXT();
    }
    VM_CASE(StoreGlobal) : {
      trackedWrite(Globals[IP->A], VM_R(IP->B));
      VM_NEXT();
    }
    VM_CASE(LoadField) : {
      Value &B = VM_R(IP->B);
      if (B.K != Value::Kind::Object)
        fail(Loc(), "NIL dereference reading field '" +
                        Ch.Names[static_cast<size_t>(IP->Imm)] + "'");
      VM_R(IP->A) = trackedRead(B.Obj->slot(IP->C),
                                (IP->Flags & FlagTracked) != 0);
      VM_NEXT();
    }
    VM_CASE(StoreField) : {
      Value &B = VM_R(IP->A);
      if (B.K != Value::Kind::Object)
        fail(Loc(), "NIL dereference writing field '" +
                        Ch.Names[static_cast<size_t>(IP->Imm)] + "'");
      trackedWrite(B.Obj->slot(IP->C), VM_R(IP->B));
      VM_NEXT();
    }
    VM_CASE(NewObj) : {
      VM_R(IP->A) =
          Value::object(allocate(Ch.Types[static_cast<size_t>(IP->Imm)]));
      VM_NEXT();
    }
    VM_CASE(CheckRecv) : {
      if (VM_R(IP->A).K != Value::Kind::Object)
        fail(Loc(), "NIL dereference calling method '" +
                        Ch.Names[static_cast<size_t>(IP->Imm)] + "'");
      VM_NEXT();
    }
    VM_CASE(CallProc) : {
      const bytecode::ProcRef &PR = Ch.Procs[static_cast<size_t>(IP->Imm)];
      std::vector<Value> CallArgs(
          ES.Regs.begin() + static_cast<long>(Base + IP->B),
          ES.Regs.begin() + static_cast<long>(Base + IP->B + IP->C));
      Value Ret = dispatch(PR.P, PR.P->Pragma,
                           (IP->Flags & FlagTracked) != 0,
                           std::move(CallArgs));
      VM_R(IP->A) = std::move(Ret);
      VM_NEXT();
    }
    VM_CASE(CallMethod) : {
      const MethodRef &MR = Ch.Methods[static_cast<size_t>(IP->Imm)];
      const auto &VTable = VM_R(IP->B).Obj->type()->VTable;
      assert(MR.Slot >= 0 &&
             static_cast<size_t>(MR.Slot) < VTable.size() &&
             "bad method slot");
      const MethodImpl &MI = VTable[static_cast<size_t>(MR.Slot)];
      if (!MI.Impl)
        fail(Loc(), "method '" + MR.Name + "' has no implementation");
      std::vector<Value> CallArgs(
          ES.Regs.begin() + static_cast<long>(Base + IP->B),
          ES.Regs.begin() + static_cast<long>(Base + IP->B + IP->C));
      Value Ret = dispatch(MI.Impl, MI.Pragma,
                           (IP->Flags & FlagTracked) != 0,
                           std::move(CallArgs));
      VM_R(IP->A) = std::move(Ret);
      VM_NEXT();
    }
    VM_CASE(CallBuiltin) : {
      switch (static_cast<Builtin>(IP->Imm)) {
      case Builtin::Print:
        Output += renderForPrint(VM_R(IP->B)) + "\n";
        VM_R(IP->A) = Value();
        break;
      case Builtin::Fmt:
        VM_R(IP->A) = Value::text(renderForPrint(VM_R(IP->B)));
        break;
      case Builtin::Max:
      case Builtin::Min: {
        long X = VM_R(IP->B).Int;
        long Y = VM_R(IP->B + 1).Int;
        bool IsMax = IP->Imm == static_cast<int32_t>(Builtin::Max);
        VM_R(IP->A) = Value::integer(IsMax ? std::max(X, Y) : std::min(X, Y));
        break;
      }
      case Builtin::Abs: {
        long X = VM_R(IP->B).Int;
        VM_R(IP->A) = Value::integer(X < 0 ? -X : X);
        break;
      }
      case Builtin::NumBuiltins:
        fail(Loc(), "bad builtin index");
      }
      VM_NEXT();
    }
    VM_CASE(Add) : {
      VM_R(IP->A) = Value::integer(VM_R(IP->B).Int + VM_R(IP->C).Int);
      VM_NEXT();
    }
    VM_CASE(Sub) : {
      VM_R(IP->A) = Value::integer(VM_R(IP->B).Int - VM_R(IP->C).Int);
      VM_NEXT();
    }
    VM_CASE(Mul) : {
      VM_R(IP->A) = Value::integer(VM_R(IP->B).Int * VM_R(IP->C).Int);
      VM_NEXT();
    }
    VM_CASE(Div) : {
      long D = VM_R(IP->C).Int;
      if (D == 0)
        fail(Loc(), "division by zero");
      VM_R(IP->A) = Value::integer(VM_R(IP->B).Int / D);
      VM_NEXT();
    }
    VM_CASE(Mod) : {
      long D = VM_R(IP->C).Int;
      if (D == 0)
        fail(Loc(), "modulo by zero");
      VM_R(IP->A) = Value::integer(VM_R(IP->B).Int % D);
      VM_NEXT();
    }
    VM_CASE(Concat) : {
      VM_R(IP->A) = Value::text(VM_R(IP->B).Text + VM_R(IP->C).Text);
      VM_NEXT();
    }
    VM_CASE(CmpEq) : {
      VM_R(IP->A) = Value::boolean(VM_R(IP->B) == VM_R(IP->C));
      VM_NEXT();
    }
    VM_CASE(CmpNe) : {
      VM_R(IP->A) = Value::boolean(!(VM_R(IP->B) == VM_R(IP->C)));
      VM_NEXT();
    }
    VM_CASE(CmpLt) : {
      VM_R(IP->A) = Value::boolean(VM_R(IP->B).Int < VM_R(IP->C).Int);
      VM_NEXT();
    }
    VM_CASE(CmpLe) : {
      VM_R(IP->A) = Value::boolean(VM_R(IP->B).Int <= VM_R(IP->C).Int);
      VM_NEXT();
    }
    VM_CASE(CmpGt) : {
      VM_R(IP->A) = Value::boolean(VM_R(IP->B).Int > VM_R(IP->C).Int);
      VM_NEXT();
    }
    VM_CASE(CmpGe) : {
      VM_R(IP->A) = Value::boolean(VM_R(IP->B).Int >= VM_R(IP->C).Int);
      VM_NEXT();
    }
    VM_CASE(Neg) : {
      VM_R(IP->A) = Value::integer(-VM_R(IP->B).Int);
      VM_NEXT();
    }
    VM_CASE(Not) : {
      VM_R(IP->A) = Value::boolean(!VM_R(IP->B).Bool);
      VM_NEXT();
    }
    VM_CASE(Jump) : {
      PC = static_cast<size_t>(IP->Imm);
      VM_NEXT();
    }
    VM_CASE(JumpIfFalse) : {
      if (!VM_R(IP->A).Bool)
        PC = static_cast<size_t>(IP->Imm);
      VM_NEXT();
    }
    VM_CASE(JumpIfTrue) : {
      if (VM_R(IP->A).Bool)
        PC = static_cast<size_t>(IP->Imm);
      VM_NEXT();
    }
    VM_CASE(ForPrep) : {
      VM_R(IP->A) = Value::integer(VM_R(IP->A).Int);
      VM_R(IP->B) = Value::integer(VM_R(IP->B).Int);
      VM_NEXT();
    }
    VM_CASE(ForTest) : {
      if (VM_R(IP->A).Int > VM_R(IP->B).Int)
        PC = static_cast<size_t>(IP->Imm);
      VM_NEXT();
    }
    VM_CASE(ForStep) : {
      VM_R(IP->A) = Value::integer(VM_R(IP->A).Int + 1);
      PC = static_cast<size_t>(IP->Imm);
      VM_NEXT();
    }
    VM_CASE(EnterUnchecked) : {
      if (Mode == ExecMode::Alphonse) {
        RT.pushCall(nullptr);
        ++Unchecked;
      }
      VM_NEXT();
    }
    VM_CASE(LeaveUnchecked) : {
      if (Mode == ExecMode::Alphonse) {
        RT.popCall();
        --Unchecked;
      }
      VM_NEXT();
    }
    VM_CASE(Ret) : { return VM_R(IP->A); }
    VM_CASE(RetNil) : { return Value(); }
    VM_CASE(RetDefault) : { return Ch.RetDefault; }

#if !defined(__GNUC__) && !defined(__clang__)
    }
    fail(Ch.Loc, "corrupt bytecode"); // Every opcode jumps or returns.
#endif
#undef VM_CASE
#undef VM_NEXT
#undef VM_R
  } catch (...) {
    // An Alphonse-L error (or injected fault) thrown inside an
    // (*UNCHECKED*) region unwinds past its LeaveUnchecked; rebalance the
    // incremental call stack before propagating.
    for (; Unchecked > 0; --Unchecked)
      RT.popCall();
    throw;
  }
}

} // namespace alphonse::interp
