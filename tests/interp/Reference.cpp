//===- Reference.cpp - graph-free Alphonse-L reference evaluator ----------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "interp/Reference.h"

#include "interp/Interp.h" // Interp::MaxNestedCalls, the language's limit.
#include "lang/Types.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

using namespace alphonse::lang;

namespace alphonse::reference {

namespace {

/// A runtime error; caught at the public API.
struct RefError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Counts one procedure level for the lifetime of a call, also when the
/// body throws.
struct DepthScope {
  explicit DepthScope(int &D) : D(D) { ++D; }
  ~DepthScope() { --D; }
  int &D;
};

} // namespace

RefValue RefValue::integer(long V) {
  RefValue R;
  R.K = Kind::Int;
  R.Int = V;
  return R;
}

RefValue RefValue::boolean(bool V) {
  RefValue R;
  R.K = Kind::Bool;
  R.Bool = V;
  return R;
}

RefValue RefValue::text(std::string V) {
  RefValue R;
  R.K = Kind::Text;
  R.Text = std::move(V);
  return R;
}

RefValue RefValue::object(Object *O) {
  RefValue R;
  R.K = Kind::Object;
  R.Obj = O;
  return R;
}

bool operator==(const RefValue &A, const RefValue &B) {
  if (A.K != B.K)
    return false;
  switch (A.K) {
  case RefValue::Kind::Nil:
    return true;
  case RefValue::Kind::Int:
    return A.Int == B.Int;
  case RefValue::Kind::Bool:
    return A.Bool == B.Bool;
  case RefValue::Kind::Text:
    return A.Text == B.Text;
  case RefValue::Kind::Object:
    return A.Obj == B.Obj;
  }
  return false;
}

std::string RefValue::render() const {
  switch (K) {
  case Kind::Nil:
    return "NIL";
  case Kind::Int:
    return std::to_string(Int);
  case Kind::Bool:
    return Bool ? "TRUE" : "FALSE";
  case Kind::Text:
    return Text;
  case Kind::Object:
    return "<" + Obj->Ty->Name + ">";
  }
  return "<?>";
}

Evaluator::Evaluator(const Module &M, const SemaInfo &Info)
    : M(M), Info(Info) {
  for (const Type &Ty : Info.GlobalTypes)
    Globals.push_back(zero(Ty));
  try {
    Frame F; // Initializers see no locals.
    for (const GlobalDecl &G : M.Globals)
      if (G.Init && G.Index >= 0)
        Globals[static_cast<size_t>(G.Index)] = eval(G.Init.get(), F);
  } catch (const RefError &E) {
    Failed = true;
    ErrorMessage = E.what();
  }
}

RefValue Evaluator::call(const std::string &ProcName,
                         std::vector<RefValue> Args) {
  if (Failed)
    return RefValue();
  try {
    const ProcDecl *P = M.findProc(ProcName);
    if (!P)
      fail(SourceLocation(), "unknown procedure '" + ProcName + "'");
    return run(P, std::move(Args));
  } catch (const RefError &E) {
    Failed = true;
    ErrorMessage = E.what();
    return RefValue();
  }
}

void Evaluator::fail(SourceLocation Loc, const std::string &Message) {
  throw RefError(Loc.str() + ": " + Message);
}

RefValue Evaluator::zero(const Type &Ty) const {
  switch (Ty.Kind) {
  case TypeKind::Integer:
    return RefValue::integer(0);
  case TypeKind::Boolean:
    return RefValue::boolean(false);
  case TypeKind::Text:
    return RefValue::text("");
  default:
    return RefValue();
  }
}

RefValue Evaluator::run(const ProcDecl *P, std::vector<RefValue> Args) {
  if (Depth >= interp::Interp::MaxNestedCalls)
    fail(P->Loc,
         "call depth exceeded in '" + P->Name + "' (runaway recursion?)");
  DepthScope Scope(Depth);
  const ProcInfo *PI = Info.procInfo(P);
  assert(PI && Args.size() == PI->ParamTypes.size());
  // Parameters, then locals by declared type, then FOR variables (NIL).
  Frame F;
  F.Slots = std::move(Args);
  for (const Type &Ty : PI->LocalTypes)
    F.Slots.push_back(zero(Ty));
  F.Slots.resize(static_cast<size_t>(PI->FrameSize));
  for (size_t I = 0; I < P->Locals.size(); ++I)
    if (P->Locals[I].Init)
      F.Slots[P->Params.size() + I] = eval(P->Locals[I].Init.get(), F);
  exec(P->Body, F);
  return F.Returned ? F.Ret : zero(PI->RetType);
}

void Evaluator::exec(const std::vector<StmtPtr> &Stmts, Frame &F) {
  for (const StmtPtr &S : Stmts) {
    if (F.Returned)
      return;
    exec(S.get(), F);
  }
}

void Evaluator::exec(const Stmt *S, Frame &F) {
  switch (S->Kind) {
  case StmtKind::Assign: {
    const auto *A = static_cast<const AssignStmt *>(S);
    RefValue V = eval(A->Value.get(), F);
    if (A->Target->Kind == ExprKind::NameRef) {
      const auto *N = static_cast<const NameRefExpr *>(A->Target.get());
      auto &Store = N->Binding == NameBinding::Global ? Globals : F.Slots;
      Store[static_cast<size_t>(N->Index)] = std::move(V);
      return;
    }
    // The value is computed before the target object is located.
    const auto *FA = static_cast<const FieldAccessExpr *>(A->Target.get());
    RefValue Base = eval(FA->Base.get(), F);
    if (Base.K != RefValue::Kind::Object)
      fail(FA->Loc, "NIL dereference writing field '" + FA->Field + "'");
    Base.Obj->Fields[static_cast<size_t>(FA->FieldIndex)] = std::move(V);
    return;
  }
  case StmtKind::If: {
    const auto *I = static_cast<const IfStmt *>(S);
    for (const IfStmt::Arm &Arm : I->Arms)
      if (eval(Arm.Cond.get(), F).Bool) {
        exec(Arm.Body, F);
        return;
      }
    exec(I->ElseBody, F);
    return;
  }
  case StmtKind::While: {
    const auto *W = static_cast<const WhileStmt *>(S);
    while (!F.Returned && eval(W->Cond.get(), F).Bool)
      exec(W->Body, F);
    return;
  }
  case StmtKind::For: {
    // Bounds are evaluated once; the body may assign the index variable
    // without changing the iteration.
    const auto *For = static_cast<const ForStmt *>(S);
    long From = eval(For->From.get(), F).Int;
    long To = eval(For->To.get(), F).Int;
    for (long I = From; I <= To && !F.Returned; ++I) {
      F.Slots[static_cast<size_t>(For->VarIndex)] = RefValue::integer(I);
      exec(For->Body, F);
    }
    return;
  }
  case StmtKind::Return: {
    const auto *R = static_cast<const ReturnStmt *>(S);
    if (R->Value)
      F.Ret = eval(R->Value.get(), F);
    F.Returned = true;
    return;
  }
  case StmtKind::Expr:
    eval(static_cast<const ExprStmt *>(S)->E.get(), F);
    return;
  }
}

RefValue Evaluator::eval(const Expr *E, Frame &F) {
  switch (E->Kind) {
  case ExprKind::IntLit:
    return RefValue::integer(static_cast<const IntLitExpr *>(E)->Value);
  case ExprKind::BoolLit:
    return RefValue::boolean(static_cast<const BoolLitExpr *>(E)->Value);
  case ExprKind::TextLit:
    return RefValue::text(static_cast<const TextLitExpr *>(E)->Value);
  case ExprKind::NilLit:
    return RefValue();
  case ExprKind::NameRef: {
    const auto *N = static_cast<const NameRefExpr *>(E);
    const auto &Store = N->Binding == NameBinding::Global ? Globals : F.Slots;
    return Store[static_cast<size_t>(N->Index)];
  }
  case ExprKind::FieldAccess: {
    const auto *FA = static_cast<const FieldAccessExpr *>(E);
    RefValue Base = eval(FA->Base.get(), F);
    if (Base.K != RefValue::Kind::Object)
      fail(FA->Loc, "NIL dereference reading field '" + FA->Field + "'");
    return Base.Obj->Fields[static_cast<size_t>(FA->FieldIndex)];
  }
  case ExprKind::Call:
    return evalCall(static_cast<const CallExpr *>(E), F);
  case ExprKind::MethodCall:
    return evalMethodCall(static_cast<const MethodCallExpr *>(E), F);
  case ExprKind::New: {
    const ObjectTypeInfo *Ty = static_cast<const NewExpr *>(E)->Resolved;
    auto Obj = std::make_unique<Object>();
    Obj->Ty = Ty;
    for (const FieldInfo &FI : Ty->Fields)
      Obj->Fields.push_back(zero(FI.Ty));
    Heap.push_back(std::move(Obj));
    return RefValue::object(Heap.back().get());
  }
  case ExprKind::Binary:
    return evalBinary(static_cast<const BinaryExpr *>(E), F);
  case ExprKind::Unary: {
    const auto *U = static_cast<const UnaryExpr *>(E);
    RefValue V = eval(U->Sub.get(), F);
    return U->Op == UnaryOp::Neg ? RefValue::integer(-V.Int)
                                 : RefValue::boolean(!V.Bool);
  }
  case ExprKind::Unchecked: // Only matters to dependency recording.
    return eval(static_cast<const UncheckedExpr *>(E)->Sub.get(), F);
  }
  return RefValue();
}

RefValue Evaluator::evalCall(const CallExpr *C, Frame &F) {
  std::vector<RefValue> Args;
  for (const ExprPtr &A : C->Args)
    Args.push_back(eval(A.get(), F));
  if (C->BuiltinIndex < 0)
    return run(C->Resolved, std::move(Args));
  switch (static_cast<Builtin>(C->BuiltinIndex)) {
  case Builtin::Print:
    Output += Args[0].render() + "\n";
    return RefValue();
  case Builtin::Fmt:
    return RefValue::text(Args[0].render());
  case Builtin::Max:
    return RefValue::integer(std::max(Args[0].Int, Args[1].Int));
  case Builtin::Min:
    return RefValue::integer(std::min(Args[0].Int, Args[1].Int));
  case Builtin::Abs:
    return RefValue::integer(Args[0].Int < 0 ? -Args[0].Int : Args[0].Int);
  case Builtin::Pause: // Takes time only; nothing observable.
  case Builtin::NumBuiltins:
    return RefValue();
  }
  return RefValue();
}

RefValue Evaluator::evalMethodCall(const MethodCallExpr *C, Frame &F) {
  // Receiver, its NIL check, then the arguments left to right.
  RefValue Base = eval(C->Base.get(), F);
  if (Base.K != RefValue::Kind::Object)
    fail(C->Loc, "NIL dereference calling method '" + C->Method + "'");
  std::vector<RefValue> Args{Base};
  for (const ExprPtr &A : C->Args)
    Args.push_back(eval(A.get(), F));
  const MethodImpl &MI =
      Base.Obj->Ty->VTable[static_cast<size_t>(C->MethodSlot)];
  if (!MI.Impl)
    fail(C->Loc, "method '" + C->Method + "' has no implementation");
  return run(MI.Impl, std::move(Args));
}

RefValue Evaluator::evalBinary(const BinaryExpr *B, Frame &F) {
  RefValue L = eval(B->Lhs.get(), F);
  // AND / OR short-circuit and yield the deciding operand's truth value.
  if (B->Op == BinaryOp::And && !L.Bool)
    return RefValue::boolean(false);
  if (B->Op == BinaryOp::Or && L.Bool)
    return RefValue::boolean(true);
  RefValue R = eval(B->Rhs.get(), F);
  switch (B->Op) {
  case BinaryOp::And:
  case BinaryOp::Or:
    return RefValue::boolean(R.Bool);
  case BinaryOp::Add:
    return RefValue::integer(L.Int + R.Int);
  case BinaryOp::Sub:
    return RefValue::integer(L.Int - R.Int);
  case BinaryOp::Mul:
    return RefValue::integer(L.Int * R.Int);
  case BinaryOp::Div:
    if (R.Int == 0)
      fail(B->Loc, "division by zero");
    return RefValue::integer(L.Int / R.Int);
  case BinaryOp::Mod:
    if (R.Int == 0)
      fail(B->Loc, "modulo by zero");
    return RefValue::integer(L.Int % R.Int);
  case BinaryOp::Concat:
    return RefValue::text(L.Text + R.Text);
  case BinaryOp::Eq:
    return RefValue::boolean(L == R);
  case BinaryOp::Ne:
    return RefValue::boolean(!(L == R));
  case BinaryOp::Lt:
    return RefValue::boolean(L.Int < R.Int);
  case BinaryOp::Le:
    return RefValue::boolean(L.Int <= R.Int);
  case BinaryOp::Gt:
    return RefValue::boolean(L.Int > R.Int);
  case BinaryOp::Ge:
    return RefValue::boolean(L.Int >= R.Int);
  }
  return RefValue();
}

} // namespace alphonse::reference
