//===- Compiler.cpp - Alphonse-L AST to bytecode lowering -----------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// One pass over every procedure body and over the global initializers:
// each body becomes a register Chunk. Frame registers 0..FrameSize-1
// reuse Sema's slot numbering (parameters, locals, FOR variables), so no
// remapping table is needed at run time; expression temporaries are
// allocated monotonically above the frame and released at statement
// boundaries. All name resolution (globals, fields, callees, vtable
// slots) is burned into operands here. Evaluation order follows the
// source left to right, and every runtime error is raised at the
// construct's source location; tests/interp holds a graph-free reference
// evaluator that the VM must match. A body whose registers do not fit the
// 16-bit operands is a compile error.
//
//===----------------------------------------------------------------------===//

#include "interp/bytecode/Compiler.h"

#include "lang/AST.h"
#include "lang/Types.h"

#include <cassert>
#include <cstdint>

using namespace alphonse::lang;

namespace alphonse::interp::bytecode {

namespace {

//===----------------------------------------------------------------------===//
// Lowering
//===----------------------------------------------------------------------===//

class ChunkCompiler {
public:
  ChunkCompiler(Chunk &Ch, int FrameSize)
      : Ch(Ch), Next(FrameSize), High(FrameSize) {}

  /// A procedure body: local initializers in declaration order (the VM
  /// seeds the frame from SlotDefaults first), then the statements.
  void procBody(const ProcDecl &P) {
    for (size_t I = 0; I < P.Locals.size(); ++I)
      if (P.Locals[I].Init)
        exprInto(static_cast<int>(P.Params.size() + I),
                 P.Locals[I].Init.get());
    stmts(P.Body);
    finish(P.Loc);
  }

  /// The module initializer: each global's initializer in declaration
  /// order, stored untracked (the constructor runs it conventionally).
  void initializers(const Module &M) {
    for (const GlobalDecl &G : M.Globals) {
      if (!G.Init || G.Index < 0)
        continue;
      int Mark = mark();
      emit(OpCode::StoreGlobal, G.Loc, G.Index, expr(G.Init.get()));
      release(Mark);
    }
    finish(SourceLocation());
  }

  /// Registers the chunk needs; above MaxRegs its operands are truncated
  /// and the chunk must be discarded.
  int regs() const { return High; }

private:
  //===--- Emission -------------------------------------------------------===//

  void finish(SourceLocation Loc) {
    emit(OpCode::RetDefault, Loc);
    Ch.NumRegs = static_cast<uint16_t>(High);
  }

  size_t emit(OpCode Op, SourceLocation Loc, int A = 0, int B = 0, int C = 0,
              int32_t Imm = 0, uint8_t Flags = 0) {
    Instr In;
    In.Op = Op;
    In.A = static_cast<uint16_t>(A);
    In.B = static_cast<uint16_t>(B);
    In.C = static_cast<uint16_t>(C);
    In.Imm = Imm;
    In.Flags = Flags;
    Ch.Code.push_back(In);
    Ch.Locs.push_back(Loc);
    return Ch.Code.size() - 1;
  }

  /// Points the forward jump at \p At to the next instruction emitted.
  void patch(size_t At) {
    Ch.Code[At].Imm = static_cast<int32_t>(Ch.Code.size());
  }

  //===--- Register allocation --------------------------------------------===//

  int temp() {
    int R = Next++;
    if (Next > High)
      High = Next;
    return R;
  }
  int mark() const { return Next; }
  void release(int M) { Next = M; }

  //===--- Pools ----------------------------------------------------------===//

  int32_t constIdx(Value V) {
    for (size_t I = 0; I < Ch.Consts.size(); ++I)
      if (Ch.Consts[I].K == V.K && Ch.Consts[I] == V)
        return static_cast<int32_t>(I);
    Ch.Consts.push_back(std::move(V));
    return static_cast<int32_t>(Ch.Consts.size() - 1);
  }

  int32_t nameIdx(const std::string &N) {
    for (size_t I = 0; I < Ch.Names.size(); ++I)
      if (Ch.Names[I] == N)
        return static_cast<int32_t>(I);
    Ch.Names.push_back(N);
    return static_cast<int32_t>(Ch.Names.size() - 1);
  }

  int32_t typeIdx(const ObjectTypeInfo *T) {
    for (size_t I = 0; I < Ch.Types.size(); ++I)
      if (Ch.Types[I] == T)
        return static_cast<int32_t>(I);
    Ch.Types.push_back(T);
    return static_cast<int32_t>(Ch.Types.size() - 1);
  }

  int32_t procIdx(const ProcDecl *Callee) {
    for (size_t I = 0; I < Ch.Procs.size(); ++I)
      if (Ch.Procs[I].P == Callee)
        return static_cast<int32_t>(I);
    Ch.Procs.push_back({Callee});
    return static_cast<int32_t>(Ch.Procs.size() - 1);
  }

  int32_t methodIdx(int Slot, const std::string &Name) {
    for (size_t I = 0; I < Ch.Methods.size(); ++I)
      if (Ch.Methods[I].Slot == Slot && Ch.Methods[I].Name == Name)
        return static_cast<int32_t>(I);
    Ch.Methods.push_back({Slot, Name});
    return static_cast<int32_t>(Ch.Methods.size() - 1);
  }

  //===--- Statements -----------------------------------------------------===//

  void stmts(const std::vector<StmtPtr> &Body) {
    for (const StmtPtr &S : Body)
      stmt(S.get());
  }

  void stmt(const Stmt *S) {
    int M = mark();
    switch (S->Kind) {
    case StmtKind::Assign:
      assign(static_cast<const AssignStmt *>(S));
      break;
    case StmtKind::If:
      ifStmt(static_cast<const IfStmt *>(S));
      break;
    case StmtKind::While:
      whileStmt(static_cast<const WhileStmt *>(S));
      break;
    case StmtKind::For:
      forStmt(static_cast<const ForStmt *>(S));
      break;
    case StmtKind::Return: {
      const auto *R = static_cast<const ReturnStmt *>(S);
      if (R->Value) {
        int V = expr(R->Value.get());
        emit(OpCode::Ret, S->Loc, V);
      } else {
        emit(OpCode::RetNil, S->Loc);
      }
      break;
    }
    case StmtKind::Expr:
      expr(static_cast<const ExprStmt *>(S)->E.get());
      break;
    }
    release(M);
  }

  void assign(const AssignStmt *A) {
    uint8_t Fl = A->TrackedModify ? FlagTracked : 0;
    if (A->Target->Kind == ExprKind::NameRef) {
      const auto *N = static_cast<const NameRefExpr *>(A->Target.get());
      if (N->Binding == NameBinding::Global) {
        int V = expr(A->Value.get());
        emit(OpCode::StoreGlobal, A->Loc, N->Index, V, 0, 0, Fl);
      } else {
        exprInto(N->Index, A->Value.get());
      }
      return;
    }
    // Field write: value first, then base, then the NIL check — observable
    // when both sides throw.
    const auto *FA = static_cast<const FieldAccessExpr *>(A->Target.get());
    int V = expr(A->Value.get());
    int B = expr(FA->Base.get());
    emit(OpCode::StoreField, FA->Loc, B, V, FA->FieldIndex,
         nameIdx(FA->Field), Fl);
  }

  void ifStmt(const IfStmt *I) {
    std::vector<size_t> Ends;
    for (const IfStmt::Arm &Arm : I->Arms) {
      int M = mark();
      int C = expr(Arm.Cond.get());
      size_t J = emit(OpCode::JumpIfFalse, Arm.Cond->Loc, C);
      release(M);
      stmts(Arm.Body);
      Ends.push_back(emit(OpCode::Jump, I->Loc));
      patch(J);
    }
    stmts(I->ElseBody);
    for (size_t J : Ends)
      patch(J);
  }

  void whileStmt(const WhileStmt *W) {
    size_t Start = Ch.Code.size();
    int M = mark();
    int C = expr(W->Cond.get());
    size_t J = emit(OpCode::JumpIfFalse, W->Cond->Loc, C);
    release(M);
    stmts(W->Body);
    emit(OpCode::Jump, W->Loc, 0, 0, 0, static_cast<int32_t>(Start));
    patch(J);
  }

  void forStmt(const ForStmt *F) {
    // A private counter/limit pair, evaluated once — body writes to the
    // index variable do not perturb the iteration.
    int Cnt = temp();
    int Lim = temp();
    exprInto(Cnt, F->From.get());
    exprInto(Lim, F->To.get());
    emit(OpCode::ForPrep, F->Loc, Cnt, Lim);
    size_t Test = Ch.Code.size();
    size_t J = emit(OpCode::ForTest, F->Loc, Cnt, Lim);
    emit(OpCode::Move, F->Loc, F->VarIndex, Cnt);
    stmts(F->Body);
    emit(OpCode::ForStep, F->Loc, Cnt, 0, 0, static_cast<int32_t>(Test));
    patch(J);
  }

  //===--- Expressions ----------------------------------------------------===//

  /// Compiles \p E and leaves the result in \p Dst, reclaiming every
  /// temporary the subexpression used.
  void exprInto(int Dst, const Expr *E) {
    int M = mark();
    int R = expr(E);
    if (R != Dst)
      emit(OpCode::Move, E->Loc, Dst, R);
    release(M);
  }

  /// Compiles \p E; \returns the register holding the result. Local and
  /// parameter references return their frame slot directly (expressions
  /// never write through another expression's register).
  int expr(const Expr *E) {
    switch (E->Kind) {
    case ExprKind::IntLit: {
      long V = static_cast<const IntLitExpr *>(E)->Value;
      int R = temp();
      if (V >= INT32_MIN && V <= INT32_MAX)
        emit(OpCode::LoadInt, E->Loc, R, 0, 0, static_cast<int32_t>(V));
      else
        emit(OpCode::LoadConst, E->Loc, R, 0, 0,
             constIdx(Value::integer(V)));
      return R;
    }
    case ExprKind::BoolLit: {
      int R = temp();
      emit(OpCode::LoadBool, E->Loc, R,
           static_cast<const BoolLitExpr *>(E)->Value ? 1 : 0);
      return R;
    }
    case ExprKind::TextLit: {
      int R = temp();
      emit(OpCode::LoadConst, E->Loc, R, 0, 0,
           constIdx(Value::text(static_cast<const TextLitExpr *>(E)->Value)));
      return R;
    }
    case ExprKind::NilLit: {
      int R = temp();
      emit(OpCode::LoadNil, E->Loc, R);
      return R;
    }
    case ExprKind::NameRef: {
      const auto *N = static_cast<const NameRefExpr *>(E);
      if (N->Binding == NameBinding::Global) {
        int R = temp();
        emit(OpCode::LoadGlobal, E->Loc, R, N->Index, 0, 0,
             N->TrackedAccess ? FlagTracked : 0);
        return R;
      }
      assert(N->Index >= 0 && "unresolved name survived Sema");
      return N->Index;
    }
    case ExprKind::FieldAccess: {
      const auto *FA = static_cast<const FieldAccessExpr *>(E);
      int B = expr(FA->Base.get());
      int R = temp();
      emit(OpCode::LoadField, FA->Loc, R, B, FA->FieldIndex,
           nameIdx(FA->Field), FA->TrackedAccess ? FlagTracked : 0);
      return R;
    }
    case ExprKind::Call:
      return call(static_cast<const CallExpr *>(E));
    case ExprKind::MethodCall:
      return methodCall(static_cast<const MethodCallExpr *>(E));
    case ExprKind::New: {
      const auto *N = static_cast<const NewExpr *>(E);
      assert(N->Resolved && "unresolved NEW survived Sema");
      int R = temp();
      emit(OpCode::NewObj, E->Loc, R, 0, 0, typeIdx(N->Resolved));
      return R;
    }
    case ExprKind::Binary:
      return binary(static_cast<const BinaryExpr *>(E));
    case ExprKind::Unary: {
      const auto *U = static_cast<const UnaryExpr *>(E);
      int S = expr(U->Sub.get());
      int R = temp();
      emit(U->Op == UnaryOp::Neg ? OpCode::Neg : OpCode::Not, E->Loc, R, S);
      return R;
    }
    case ExprKind::Unchecked: {
      const auto *U = static_cast<const UncheckedExpr *>(E);
      emit(OpCode::EnterUnchecked, E->Loc);
      int R = expr(U->Sub.get());
      emit(OpCode::LeaveUnchecked, E->Loc);
      return R;
    }
    }
    assert(false && "unknown expression kind");
    return 0;
  }

  /// Arguments are staged in a contiguous register window so the call op
  /// can slice them without gathering.
  int call(const CallExpr *C) {
    int NArgs = static_cast<int>(C->Args.size());
    int ArgBase = Next;
    for (int I = 0; I < NArgs; ++I)
      temp();
    for (int I = 0; I < NArgs; ++I)
      exprInto(ArgBase + I, C->Args[I].get());
    int R = temp();
    if (C->BuiltinIndex >= 0) {
      emit(OpCode::CallBuiltin, C->Loc, R, ArgBase, NArgs, C->BuiltinIndex);
      return R;
    }
    assert(C->Resolved && "unresolved call survived Sema");
    emit(OpCode::CallProc, C->Loc, R, ArgBase, NArgs, procIdx(C->Resolved),
         C->CheckedCall ? FlagTracked : 0);
    return R;
  }

  int methodCall(const MethodCallExpr *C) {
    int NArgs = static_cast<int>(C->Args.size());
    int ArgBase = Next;
    for (int I = 0; I < NArgs + 1; ++I)
      temp();
    exprInto(ArgBase, C->Base.get());
    // The receiver NIL check sits between receiver and argument
    // evaluation.
    emit(OpCode::CheckRecv, C->Loc, ArgBase, 0, 0, nameIdx(C->Method));
    for (int I = 0; I < NArgs; ++I)
      exprInto(ArgBase + 1 + I, C->Args[I].get());
    int R = temp();
    assert(C->MethodSlot >= 0 && "unresolved method survived Sema");
    emit(OpCode::CallMethod, C->Loc, R, ArgBase, NArgs + 1,
         methodIdx(C->MethodSlot, C->Method),
         C->CheckedCall ? FlagTracked : 0);
    return R;
  }

  int binary(const BinaryExpr *B) {
    if (B->Op == BinaryOp::And || B->Op == BinaryOp::Or) {
      // Short-circuit with a boolean coercion on both sides: AND yields
      // boolean(L.Bool) when false, boolean(R.Bool) otherwise; OR dually.
      int Dst = temp();
      int M = mark();
      int L = expr(B->Lhs.get());
      emit(OpCode::CastBool, B->Lhs->Loc, Dst, L);
      release(M);
      size_t J = emit(B->Op == BinaryOp::And ? OpCode::JumpIfFalse
                                             : OpCode::JumpIfTrue,
                      B->Loc, Dst);
      M = mark();
      int R = expr(B->Rhs.get());
      emit(OpCode::CastBool, B->Rhs->Loc, Dst, R);
      release(M);
      patch(J);
      return Dst;
    }
    int L = expr(B->Lhs.get());
    int R = expr(B->Rhs.get());
    int Dst = temp();
    OpCode Op = OpCode::Add;
    switch (B->Op) {
    case BinaryOp::Add:
    case BinaryOp::And: // AND / OR were lowered above.
    case BinaryOp::Or:
      break;
    case BinaryOp::Sub:
      Op = OpCode::Sub;
      break;
    case BinaryOp::Mul:
      Op = OpCode::Mul;
      break;
    case BinaryOp::Div:
      Op = OpCode::Div;
      break;
    case BinaryOp::Mod:
      Op = OpCode::Mod;
      break;
    case BinaryOp::Concat:
      Op = OpCode::Concat;
      break;
    case BinaryOp::Eq:
      Op = OpCode::CmpEq;
      break;
    case BinaryOp::Ne:
      Op = OpCode::CmpNe;
      break;
    case BinaryOp::Lt:
      Op = OpCode::CmpLt;
      break;
    case BinaryOp::Le:
      Op = OpCode::CmpLe;
      break;
    case BinaryOp::Gt:
      Op = OpCode::CmpGt;
      break;
    case BinaryOp::Ge:
      Op = OpCode::CmpGe;
      break;
    }
    emit(Op, B->Loc, Dst, L, R);
    return Dst;
  }

  Chunk &Ch;
  int Next; ///< Next free register.
  int High; ///< High-water mark (becomes Chunk::NumRegs).
};

} // namespace

std::unique_ptr<BytecodeModule> compileModule(const Module &M,
                                              const SemaInfo &Info,
                                              DiagnosticEngine &Diags) {
  auto Mod = std::make_unique<BytecodeModule>();
  size_t Errors = Diags.errorCount();
  auto CheckRegs = [&](const ChunkCompiler &CC, SourceLocation Loc,
                       const std::string &What) {
    if (CC.regs() > MaxRegs)
      Diags.error(Loc, What + " needs " + std::to_string(CC.regs()) +
                           " registers; the limit is " +
                           std::to_string(MaxRegs));
  };

  Mod->Chunks.resize(M.Procs.size());
  for (const auto &P : M.Procs) {
    const ProcInfo *PI = Info.procInfo(P.get());
    assert(PI && "procedure was not analyzed");
    size_t Idx = static_cast<size_t>(P->Index);
    Chunk &Ch = Mod->Chunks[Idx];
    Ch.Name = P->Name;
    Ch.FaultSite = "vm." + P->Name;
    Ch.Loc = P->Loc;
    Ch.NumParams = static_cast<uint16_t>(PI->ParamTypes.size());
    Ch.FrameSize = static_cast<uint16_t>(PI->FrameSize);
    Ch.SlotDefaults.assign(static_cast<size_t>(PI->FrameSize), Value());
    for (size_t I = 0; I < PI->LocalTypes.size(); ++I)
      Ch.SlotDefaults[PI->ParamTypes.size() + I] =
          defaultValue(PI->LocalTypes[I]);
    Ch.RetDefault = defaultValue(PI->RetType);
    ChunkCompiler CC(Ch, PI->FrameSize);
    CC.procBody(*P);
    CheckRegs(CC, P->Loc, "procedure '" + P->Name + "'");
  }

  Mod->Init.Name = "<module initializer>";
  Mod->Init.FaultSite = "vm.<init>";
  ChunkCompiler CC(Mod->Init, 0);
  CC.initializers(M);
  CheckRegs(CC, M.Globals.empty() ? SourceLocation() : M.Globals.front().Loc,
            "the global initializers");
  if (Diags.errorCount() != Errors)
    return nullptr;
  return Mod;
}

} // namespace alphonse::interp::bytecode
