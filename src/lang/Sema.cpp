//===- Sema.cpp - Alphonse-L semantic analysis ------------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "lang/Sema.h"

#include <unordered_map>
#include <unordered_set>

namespace alphonse::lang {

std::string Type::str() const {
  switch (Kind) {
  case TypeKind::Void:
    return "<void>";
  case TypeKind::Integer:
    return "INTEGER";
  case TypeKind::Boolean:
    return "BOOLEAN";
  case TypeKind::Text:
    return "TEXT";
  case TypeKind::Object:
    return Obj ? Obj->Name : "<object>";
  case TypeKind::Nil:
    return "NIL";
  }
  return "<unknown>";
}

namespace {

/// One entry in a lexical scope.
struct VarInfo {
  NameBinding Binding = NameBinding::Unresolved;
  int Index = -1;
  Type Ty;
};

class SemaContext {
public:
  SemaContext(Module &M, DiagnosticEngine &Diags) : M(M), Diags(Diags) {}

  SemaInfo run() {
    buildTypes();
    buildGlobals();
    declareProcs(); // Global initializers may call procedures.
    checkGlobalInits();
    for (auto &P : M.Procs)
      checkProcBody(P.get());
    return std::move(Info);
  }

private:
  //===--------------------------------------------------------------------===//
  // Phase 1: object types
  //===--------------------------------------------------------------------===//

  void buildTypes() {
    // Create shells.
    for (TypeDecl &TD : M.Types) {
      if (Info.TypeByName.count(TD.Name)) {
        Diags.error(TD.Loc, "duplicate type name '" + TD.Name + "'");
        continue;
      }
      auto Owned = std::make_unique<ObjectTypeInfo>();
      Owned->Name = TD.Name;
      Owned->Id = static_cast<int>(Info.Types.size());
      Info.TypeByName[TD.Name] = Owned.get();
      Info.Types.push_back(std::move(Owned));
      DeclByName[TD.Name] = &TD;
    }
    for (auto &Owned : Info.Types)
      finalizeType(Owned.get());
  }

  void finalizeType(ObjectTypeInfo *T) {
    if (Finalized.count(T))
      return;
    if (!InProgress.insert(T).second) {
      Diags.error(DeclByName[T->Name]->Loc,
                  "inheritance cycle involving type '" + T->Name + "'");
      Finalized.insert(T);
      return;
    }
    TypeDecl *TD = DeclByName[T->Name];
    if (!TD->SuperName.empty()) {
      auto It = Info.TypeByName.find(TD->SuperName);
      if (It == Info.TypeByName.end()) {
        Diags.error(TD->Loc, "unknown supertype '" + TD->SuperName + "'");
      } else {
        finalizeType(It->second);
        T->Super = It->second;
        T->Fields = It->second->Fields;
        T->VTable = It->second->VTable;
      }
    }
    // Own fields.
    for (const FieldDecl &FD : TD->Fields) {
      if (T->findField(FD.Name)) {
        Diags.error(FD.Loc, "duplicate field '" + FD.Name + "' in type '" +
                                T->Name + "'");
        continue;
      }
      FieldInfo FI;
      FI.Name = FD.Name;
      FI.Ty = resolveTypeRef(FD.Type);
      FI.Index = static_cast<int>(T->Fields.size());
      T->Fields.push_back(std::move(FI));
    }
    // New methods.
    for (const MethodDecl &MD : TD->Methods) {
      if (T->findMethod(MD.Name)) {
        Diags.error(MD.Loc, "method '" + MD.Name +
                                "' already exists; use OVERRIDES");
        continue;
      }
      auto Sig = std::make_unique<MethodSig>();
      Sig->Name = MD.Name;
      for (const ParamDecl &PD : MD.Params)
        Sig->ParamTypes.push_back(resolveTypeRef(PD.Type));
      Sig->RetType = MD.RetType ? resolveTypeRef(*MD.RetType)
                                : Type::voidType();
      Sig->Slot = static_cast<int>(T->VTable.size());
      Sig->Introducer = T;
      MethodImpl Impl;
      Impl.Sig = Sig.get();
      Impl.Pragma = MD.Pragma;
      Impl.Impl = resolveMethodImpl(T, *Sig, MD.ImplName, MD.Pragma, MD.Loc);
      T->OwnSigs.push_back(std::move(Sig));
      T->VTable.push_back(Impl);
    }
    // Overrides.
    for (const OverrideDecl &OD : TD->Overrides) {
      const MethodSig *Sig = T->findMethod(OD.Name);
      if (!Sig) {
        Diags.error(OD.Loc, "override of unknown method '" + OD.Name + "'");
        continue;
      }
      MethodImpl &Entry = T->VTable[Sig->Slot];
      Entry.Pragma = OD.Pragma;
      Entry.Impl = resolveMethodImpl(T, *Sig, OD.ImplName, OD.Pragma, OD.Loc);
    }
    InProgress.erase(T);
    Finalized.insert(T);
  }

  /// Checks that \p ImplName names a procedure whose signature matches the
  /// method: a receiver parameter (an ancestor-or-self of \p T) followed by
  /// the method's parameters.
  const ProcDecl *resolveMethodImpl(ObjectTypeInfo *T, const MethodSig &Sig,
                                    const std::string &ImplName,
                                    const PragmaInfo &Pragma,
                                    SourceLocation Loc) {
    ProcDecl *Impl = M.findProc(ImplName);
    if (!Impl) {
      Diags.error(Loc, "unknown procedure '" + ImplName +
                           "' implementing method '" + Sig.Name + "'");
      return nullptr;
    }
    if (Impl->Params.size() != Sig.ParamTypes.size() + 1) {
      Diags.error(Loc, "procedure '" + ImplName + "' takes " +
                           std::to_string(Impl->Params.size()) +
                           " parameters but method '" + Sig.Name +
                           "' needs a receiver plus " +
                           std::to_string(Sig.ParamTypes.size()));
      return Impl;
    }
    Type Recv = resolveTypeRef(Impl->Params[0].Type);
    if (!Recv.isObject() || !T->derivesFrom(Recv.Obj))
      Diags.error(Loc, "receiver parameter of '" + ImplName +
                           "' must be a supertype of '" + T->Name + "'");
    for (size_t I = 0; I < Sig.ParamTypes.size(); ++I) {
      Type Got = resolveTypeRef(Impl->Params[I + 1].Type);
      if (!(Got == Sig.ParamTypes[I]))
        Diags.error(Loc, "parameter " + std::to_string(I + 1) + " of '" +
                             ImplName + "' has type " + Got.str() +
                             " but the method declares " +
                             Sig.ParamTypes[I].str());
    }
    Type GotRet =
        Impl->RetType ? resolveTypeRef(*Impl->RetType) : Type::voidType();
    if (!(GotRet == Sig.RetType))
      Diags.error(Loc, "return type of '" + ImplName + "' is " +
                           GotRet.str() + " but the method declares " +
                           Sig.RetType.str());
    if (Pragma.Kind == ProcPragma::Maintained) {
      if (Sig.RetType == Type::voidType())
        Diags.error(Loc, "maintained method '" + Sig.Name +
                             "' must return a value");
      Impl->BoundAsMaintained = true;
    }
    if (Pragma.Kind == ProcPragma::Cached)
      Diags.error(Loc, "methods use (*MAINTAINED*), not (*CACHED*)");
    return Impl;
  }

  //===--------------------------------------------------------------------===//
  // Phase 2: globals
  //===--------------------------------------------------------------------===//

  void buildGlobals() {
    for (GlobalDecl &G : M.Globals) {
      if (GlobalScope.count(G.Name)) {
        Diags.error(G.Loc, "duplicate top-level variable '" + G.Name + "'");
        continue;
      }
      G.Index = static_cast<int>(Info.GlobalTypes.size());
      Type Ty = resolveTypeRef(G.Type);
      Info.GlobalTypes.push_back(Ty);
      GlobalScope[G.Name] = VarInfo{NameBinding::Global, G.Index, Ty};
    }
  }

  void checkGlobalInits() {
    for (GlobalDecl &G : M.Globals) {
      if (!G.Init || G.Index < 0)
        continue;
      Type Got = checkExpr(G.Init.get());
      if (!isAssignable(Info.GlobalTypes[G.Index], Got))
        Diags.error(G.Loc, "cannot initialize " +
                               Info.GlobalTypes[G.Index].str() +
                               " variable '" + G.Name + "' with " +
                               Got.str());
    }
  }

  //===--------------------------------------------------------------------===//
  // Phase 3: procedures
  //===--------------------------------------------------------------------===//

  /// Registers every signature before any body or initializer is checked,
  /// so calls can reach procedures declared later.
  void declareProcs() {
    for (auto &P : M.Procs) {
      P->Index = static_cast<int>(&P - M.Procs.data());
      if (Info.Procs.count(P.get())) {
        Diags.error(P->Loc, "duplicate procedure '" + P->Name + "'");
        continue;
      }
      ProcInfo PI;
      for (const ParamDecl &PD : P->Params)
        PI.ParamTypes.push_back(resolveTypeRef(PD.Type));
      PI.RetType =
          P->RetType ? resolveTypeRef(*P->RetType) : Type::voidType();
      PI.FrameSize =
          static_cast<int>(P->Params.size() + P->Locals.size());
      Info.Procs[P.get()] = std::move(PI);
      if (P->Pragma.Kind == ProcPragma::Cached && !P->RetType)
        Diags.error(P->Loc,
                    "cached procedure '" + P->Name + "' must return a value");
      if (P->Pragma.Kind == ProcPragma::Maintained)
        Diags.error(P->Loc, "(*MAINTAINED*) belongs on method bindings; use "
                            "(*CACHED*) for procedures");
    }
  }

  void checkProcBody(ProcDecl *P) {
    CurrentProc = P;
    CurrentInfo = &Info.Procs[P];
    Scopes.clear();
    Scopes.emplace_back();
    int Slot = 0;
    for (size_t I = 0; I < P->Params.size(); ++I) {
      declare(P->Params[I].Name, P->Params[I].Loc,
              VarInfo{NameBinding::Param, Slot++,
                      CurrentInfo->ParamTypes[I]});
    }
    for (LocalDecl &L : P->Locals) {
      Type Ty = resolveTypeRef(L.Type);
      CurrentInfo->LocalTypes.push_back(Ty);
      if (L.Init) {
        Type Got = checkExpr(L.Init.get());
        if (!isAssignable(Ty, Got))
          Diags.error(L.Loc, "cannot initialize " + Ty.str() + " local '" +
                                 L.Name + "' with " + Got.str());
      }
      declare(L.Name, L.Loc, VarInfo{NameBinding::Local, Slot++, Ty});
    }
    checkStmts(P->Body);
    Scopes.clear();
    CurrentProc = nullptr;
    CurrentInfo = nullptr;
  }

  void declare(const std::string &Name, SourceLocation Loc, VarInfo V) {
    auto &Scope = Scopes.back();
    if (Scope.count(Name)) {
      Diags.error(Loc, "redeclaration of '" + Name + "'");
      return;
    }
    Scope[Name] = V;
  }

  const VarInfo *lookup(const std::string &Name) const {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
      auto Found = It->find(Name);
      if (Found != It->end())
        return &Found->second;
    }
    auto Found = GlobalScope.find(Name);
    return Found == GlobalScope.end() ? nullptr : &Found->second;
  }

  void checkStmts(const std::vector<StmtPtr> &Stmts) {
    for (const StmtPtr &S : Stmts)
      checkStmt(S.get());
  }

  void checkStmt(Stmt *S) {
    switch (S->Kind) {
    case StmtKind::Assign: {
      auto *A = static_cast<AssignStmt *>(S);
      Type TargetTy = checkExpr(A->Target.get());
      if (A->Target->Kind != ExprKind::NameRef &&
          A->Target->Kind != ExprKind::FieldAccess)
        Diags.error(A->Loc, "assignment target must be a variable or field");
      Type Got = checkExpr(A->Value.get());
      if (!isAssignable(TargetTy, Got))
        Diags.error(A->Loc, "cannot assign " + Got.str() + " to " +
                                TargetTy.str());
      return;
    }
    case StmtKind::If: {
      auto *I = static_cast<IfStmt *>(S);
      for (IfStmt::Arm &Arm : I->Arms) {
        requireType(Arm.Cond.get(), Type::boolean(), "IF condition");
        checkStmts(Arm.Body);
      }
      checkStmts(I->ElseBody);
      return;
    }
    case StmtKind::While: {
      auto *W = static_cast<WhileStmt *>(S);
      requireType(W->Cond.get(), Type::boolean(), "WHILE condition");
      checkStmts(W->Body);
      return;
    }
    case StmtKind::For: {
      auto *F = static_cast<ForStmt *>(S);
      requireType(F->From.get(), Type::integer(), "FOR lower bound");
      requireType(F->To.get(), Type::integer(), "FOR upper bound");
      F->VarIndex = CurrentInfo->FrameSize++;
      Scopes.emplace_back();
      declare(F->Var, F->Loc,
              VarInfo{NameBinding::Local, F->VarIndex, Type::integer()});
      checkStmts(F->Body);
      Scopes.pop_back();
      return;
    }
    case StmtKind::Return: {
      auto *R = static_cast<ReturnStmt *>(S);
      Type Want = CurrentInfo->RetType;
      if (!R->Value) {
        if (!(Want == Type::voidType()))
          Diags.error(R->Loc, "RETURN needs a value of type " + Want.str());
        return;
      }
      Type Got = checkExpr(R->Value.get());
      if (Want == Type::voidType())
        Diags.error(R->Loc, "procedure '" + CurrentProc->Name +
                                "' does not return a value");
      else if (!isAssignable(Want, Got))
        Diags.error(R->Loc,
                    "cannot return " + Got.str() + " from a procedure of "
                    "type " + Want.str());
      return;
    }
    case StmtKind::Expr: {
      auto *E = static_cast<ExprStmt *>(S);
      checkExpr(E->E.get());
      return;
    }
    }
  }

  void requireType(Expr *E, Type Want, const char *What) {
    Type Got = checkExpr(E);
    if (!(Got == Want))
      Diags.error(E->Loc, std::string(What) + " must be " + Want.str() +
                              ", found " + Got.str());
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  Type checkExpr(Expr *E) {
    switch (E->Kind) {
    case ExprKind::IntLit:
      return Type::integer();
    case ExprKind::BoolLit:
      return Type::boolean();
    case ExprKind::TextLit:
      return Type::text();
    case ExprKind::NilLit:
      return Type::nil();
    case ExprKind::NameRef: {
      auto *N = static_cast<NameRefExpr *>(E);
      const VarInfo *V = lookup(N->Name);
      if (!V) {
        Diags.error(N->Loc, "unknown variable '" + N->Name + "'");
        return Type::integer();
      }
      N->Binding = V->Binding;
      N->Index = V->Index;
      return V->Ty;
    }
    case ExprKind::FieldAccess: {
      auto *F = static_cast<FieldAccessExpr *>(E);
      Type Base = checkExpr(F->Base.get());
      if (!Base.isObject()) {
        Diags.error(F->Loc, "field access on non-object type " + Base.str());
        return Type::integer();
      }
      const FieldInfo *FI = Base.Obj->findField(F->Field);
      if (!FI) {
        Diags.error(F->Loc, "type '" + Base.Obj->Name + "' has no field '" +
                                F->Field + "'");
        return Type::integer();
      }
      F->FieldIndex = FI->Index;
      return FI->Ty;
    }
    case ExprKind::Call:
      return checkCall(static_cast<CallExpr *>(E));
    case ExprKind::MethodCall:
      return checkMethodCall(static_cast<MethodCallExpr *>(E));
    case ExprKind::New: {
      auto *N = static_cast<NewExpr *>(E);
      const ObjectTypeInfo *T = Info.lookupType(N->TypeName);
      if (!T) {
        Diags.error(N->Loc, "NEW of unknown type '" + N->TypeName + "'");
        return Type::integer();
      }
      N->Resolved = T;
      return Type::object(T);
    }
    case ExprKind::Binary:
      return checkBinary(static_cast<BinaryExpr *>(E));
    case ExprKind::Unary: {
      auto *U = static_cast<UnaryExpr *>(E);
      if (U->Op == UnaryOp::Neg) {
        requireType(U->Sub.get(), Type::integer(), "operand of unary '-'");
        return Type::integer();
      }
      requireType(U->Sub.get(), Type::boolean(), "operand of NOT");
      return Type::boolean();
    }
    case ExprKind::Unchecked: {
      auto *U = static_cast<UncheckedExpr *>(E);
      return checkExpr(U->Sub.get());
    }
    }
    return Type::voidType();
  }

  Type checkCall(CallExpr *C) {
    // Builtins first.
    if (C->Callee == "print" || C->Callee == "fmt") {
      if (C->Args.size() != 1) {
        Diags.error(C->Loc, "'" + C->Callee + "' takes one argument");
        return C->Callee == "fmt" ? Type::text() : Type::voidType();
      }
      Type Got = checkExpr(C->Args[0].get());
      if (Got == Type::voidType())
        Diags.error(C->Loc, "cannot pass a void value");
      C->BuiltinIndex = static_cast<int>(
          C->Callee == "print" ? Builtin::Print : Builtin::Fmt);
      return C->Callee == "fmt" ? Type::text() : Type::voidType();
    }
    if (C->Callee == "max" || C->Callee == "min") {
      if (C->Args.size() != 2) {
        Diags.error(C->Loc, "'" + C->Callee + "' takes two arguments");
        return Type::integer();
      }
      requireType(C->Args[0].get(), Type::integer(), "argument");
      requireType(C->Args[1].get(), Type::integer(), "argument");
      C->BuiltinIndex = static_cast<int>(
          C->Callee == "max" ? Builtin::Max : Builtin::Min);
      return Type::integer();
    }
    if (C->Callee == "abs") {
      if (C->Args.size() != 1) {
        Diags.error(C->Loc, "'abs' takes one argument");
        return Type::integer();
      }
      requireType(C->Args[0].get(), Type::integer(), "argument");
      C->BuiltinIndex = static_cast<int>(Builtin::Abs);
      return Type::integer();
    }
    ProcDecl *Callee = M.findProc(C->Callee);
    if (!Callee) {
      Diags.error(C->Loc, "unknown procedure '" + C->Callee + "'");
      for (ExprPtr &A : C->Args)
        checkExpr(A.get());
      return Type::integer();
    }
    C->Resolved = Callee;
    const ProcInfo &PI = Info.Procs[Callee];
    if (C->Args.size() != PI.ParamTypes.size()) {
      Diags.error(C->Loc, "'" + C->Callee + "' takes " +
                              std::to_string(PI.ParamTypes.size()) +
                              " arguments, got " +
                              std::to_string(C->Args.size()));
    }
    for (size_t I = 0; I < C->Args.size(); ++I) {
      Type Got = checkExpr(C->Args[I].get());
      if (I < PI.ParamTypes.size() && !isAssignable(PI.ParamTypes[I], Got))
        Diags.error(C->Args[I]->Loc,
                    "argument " + std::to_string(I + 1) + " of '" +
                        C->Callee + "' has type " + Got.str() +
                        " but the parameter is " + PI.ParamTypes[I].str());
    }
    return PI.RetType;
  }

  Type checkMethodCall(MethodCallExpr *C) {
    Type Base = checkExpr(C->Base.get());
    if (!Base.isObject()) {
      Diags.error(C->Loc, "method call on non-object type " + Base.str());
      for (ExprPtr &A : C->Args)
        checkExpr(A.get());
      return Type::integer();
    }
    const MethodSig *Sig = Base.Obj->findMethod(C->Method);
    if (!Sig) {
      Diags.error(C->Loc, "type '" + Base.Obj->Name + "' has no method '" +
                              C->Method + "'");
      for (ExprPtr &A : C->Args)
        checkExpr(A.get());
      return Type::integer();
    }
    C->MethodSlot = Sig->Slot;
    if (C->Args.size() != Sig->ParamTypes.size())
      Diags.error(C->Loc, "method '" + C->Method + "' takes " +
                              std::to_string(Sig->ParamTypes.size()) +
                              " arguments, got " +
                              std::to_string(C->Args.size()));
    for (size_t I = 0; I < C->Args.size(); ++I) {
      Type Got = checkExpr(C->Args[I].get());
      if (I < Sig->ParamTypes.size() &&
          !isAssignable(Sig->ParamTypes[I], Got))
        Diags.error(C->Args[I]->Loc,
                    "argument " + std::to_string(I + 1) + " of method '" +
                        C->Method + "' has type " + Got.str() +
                        " but the parameter is " + Sig->ParamTypes[I].str());
    }
    return Sig->RetType;
  }

  Type checkBinary(BinaryExpr *B) {
    switch (B->Op) {
    case BinaryOp::Add:
    case BinaryOp::Sub:
    case BinaryOp::Mul:
    case BinaryOp::Div:
    case BinaryOp::Mod:
      requireType(B->Lhs.get(), Type::integer(), "arithmetic operand");
      requireType(B->Rhs.get(), Type::integer(), "arithmetic operand");
      return Type::integer();
    case BinaryOp::Concat:
      requireType(B->Lhs.get(), Type::text(), "'&' operand");
      requireType(B->Rhs.get(), Type::text(), "'&' operand");
      return Type::text();
    case BinaryOp::And:
    case BinaryOp::Or:
      requireType(B->Lhs.get(), Type::boolean(), "boolean operand");
      requireType(B->Rhs.get(), Type::boolean(), "boolean operand");
      return Type::boolean();
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
      requireType(B->Lhs.get(), Type::integer(), "comparison operand");
      requireType(B->Rhs.get(), Type::integer(), "comparison operand");
      return Type::boolean();
    case BinaryOp::Eq:
    case BinaryOp::Ne: {
      Type L = checkExpr(B->Lhs.get());
      Type R = checkExpr(B->Rhs.get());
      bool Ok = (L == R && !(L == Type::voidType())) ||
                (L.isNilOrObject() && R.isNilOrObject());
      if (!Ok)
        Diags.error(B->Loc, "cannot compare " + L.str() + " with " +
                                R.str());
      return Type::boolean();
    }
    }
    return Type::voidType();
  }

  //===--------------------------------------------------------------------===//
  // Helpers
  //===--------------------------------------------------------------------===//

  Type resolveTypeRef(const TypeRef &T) {
    if (T.Name == "INTEGER")
      return Type::integer();
    if (T.Name == "BOOLEAN")
      return Type::boolean();
    if (T.Name == "TEXT")
      return Type::text();
    if (const ObjectTypeInfo *O = Info.lookupType(T.Name))
      return Type::object(O);
    Diags.error(T.Loc, "unknown type '" + T.Name + "'");
    return Type::integer();
  }

  Module &M;
  DiagnosticEngine &Diags;
  SemaInfo Info;

  std::unordered_map<std::string, TypeDecl *> DeclByName;
  std::unordered_set<const ObjectTypeInfo *> Finalized;
  std::unordered_set<const ObjectTypeInfo *> InProgress;

  std::unordered_map<std::string, VarInfo> GlobalScope;
  std::vector<std::unordered_map<std::string, VarInfo>> Scopes;
  ProcDecl *CurrentProc = nullptr;
  ProcInfo *CurrentInfo = nullptr;
};

} // namespace

SemaInfo analyze(Module &M, DiagnosticEngine &Diags) {
  SemaContext Ctx(M, Diags);
  return Ctx.run();
}

} // namespace alphonse::lang
