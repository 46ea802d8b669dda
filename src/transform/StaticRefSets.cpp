//===- StaticRefSets.cpp - Static referenced-argument analysis ------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "transform/StaticRefSets.h"

#include <unordered_set>

using namespace alphonse::lang;

namespace alphonse::transform {

namespace {

/// The "unbounded" sentinel for bounds arithmetic.
constexpr int Unbounded = -1;

int addBounds(int A, int B) {
  if (A == Unbounded || B == Unbounded)
    return Unbounded;
  return A + B;
}

class Analyzer {
public:
  Analyzer(const Module &M, const SemaInfo &Info) : M(M), Info(Info) {
    // Whole-program view of method bindings by name, for dispatch sites.
    for (const auto &T : Info.Types)
      for (const MethodImpl &MI : T->VTable)
        if (MI.Impl)
          MethodBindings[MI.Sig->Name].push_back(&MI);
  }

  StaticRefSetResult run() {
    StaticRefSetResult R;
    for (const auto &P : M.Procs) {
      int Bound = boundOf(P.get());
      RefSetInfo RI;
      RI.IsStatic = Bound != Unbounded;
      RI.Bound = RI.IsStatic ? Bound : 0;
      R.Procs[P.get()] = RI;
    }
    return R;
  }

private:
  /// Memoized per-procedure bound, with an in-progress marker so direct
  /// or mutual recursion widens to Unbounded.
  int boundOf(const ProcDecl *P) {
    auto It = Memo.find(P);
    if (It != Memo.end())
      return It->second;
    if (!InProgress.insert(P).second)
      return Unbounded; // Cycle through the call graph.
    int Bound = 0;
    for (const LocalDecl &L : P->Locals)
      if (L.Init)
        Bound = addBounds(Bound, exprBound(L.Init.get()));
    for (const StmtPtr &S : P->Body) {
      Bound = addBounds(Bound, stmtBound(S.get()));
      if (Bound == Unbounded)
        break;
    }
    InProgress.erase(P);
    Memo[P] = Bound;
    return Bound;
  }

  int stmtBound(const Stmt *S) {
    switch (S->Kind) {
    case StmtKind::Assign: {
      const auto *A = static_cast<const AssignStmt *>(S);
      int Bound = exprBound(A->Value.get());
      // A tracked write contributes the location itself (modify begins
      // with access), plus the base read for field targets.
      if (A->Target->Kind == ExprKind::FieldAccess) {
        const auto *F = static_cast<const FieldAccessExpr *>(A->Target.get());
        Bound = addBounds(Bound, addBounds(exprBound(F->Base.get()), 1));
      } else {
        const auto *N = static_cast<const NameRefExpr *>(A->Target.get());
        if (N->Binding == NameBinding::Global)
          Bound = addBounds(Bound, 1);
      }
      return Bound;
    }
    case StmtKind::If: {
      const auto *I = static_cast<const IfStmt *>(S);
      // Branches may both run across re-executions; sum is a safe bound.
      int Bound = 0;
      for (const IfStmt::Arm &Arm : I->Arms) {
        Bound = addBounds(Bound, exprBound(Arm.Cond.get()));
        for (const StmtPtr &B : Arm.Body)
          Bound = addBounds(Bound, stmtBound(B.get()));
      }
      for (const StmtPtr &B : I->ElseBody)
        Bound = addBounds(Bound, stmtBound(B.get()));
      return Bound;
    }
    case StmtKind::While:
    case StmtKind::For:
      return Unbounded; // Data-dependent iteration count.
    case StmtKind::Return: {
      const auto *R = static_cast<const ReturnStmt *>(S);
      return R->Value ? exprBound(R->Value.get()) : 0;
    }
    case StmtKind::Expr:
      return exprBound(static_cast<const ExprStmt *>(S)->E.get());
    }
    return Unbounded;
  }

  int exprBound(const Expr *E) {
    switch (E->Kind) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
    case ExprKind::TextLit:
    case ExprKind::NilLit:
    case ExprKind::New:
      return 0;
    case ExprKind::NameRef: {
      const auto *N = static_cast<const NameRefExpr *>(E);
      return N->Binding == NameBinding::Global ? 1 : 0;
    }
    case ExprKind::FieldAccess: {
      const auto *F = static_cast<const FieldAccessExpr *>(E);
      return addBounds(exprBound(F->Base.get()), 1);
    }
    case ExprKind::Call: {
      const auto *C = static_cast<const CallExpr *>(E);
      int Bound = 0;
      for (const ExprPtr &A : C->Args)
        Bound = addBounds(Bound, exprBound(A.get()));
      if (C->BuiltinIndex >= 0)
        return Bound; // Builtins reference nothing.
      if (!C->Resolved)
        return Unbounded;
      if (C->Resolved->Pragma.Kind == ProcPragma::Cached)
        return addBounds(Bound, 1); // One edge to the cached instance.
      return addBounds(Bound, boundOf(C->Resolved)); // Inlined refs.
    }
    case ExprKind::MethodCall: {
      const auto *C = static_cast<const MethodCallExpr *>(E);
      int Bound = exprBound(C->Base.get());
      for (const ExprPtr &A : C->Args)
        Bound = addBounds(Bound, exprBound(A.get()));
      // Dynamic dispatch: consider every whole-program binding of this
      // method name. Incremental bindings cost one edge; conventional
      // bindings inline.
      auto It = MethodBindings.find(C->Method);
      if (It == MethodBindings.end())
        return Unbounded; // No binding to bound over.
      int Worst = 0;
      for (const MethodImpl *MI : It->second) {
        int One = (MI->Pragma.Kind == ProcPragma::Maintained)
                      ? 1
                      : boundOf(MI->Impl);
        if (One == Unbounded)
          return Unbounded;
        Worst = std::max(Worst, One);
      }
      return addBounds(Bound, Worst);
    }
    case ExprKind::Binary: {
      const auto *B = static_cast<const BinaryExpr *>(E);
      return addBounds(exprBound(B->Lhs.get()), exprBound(B->Rhs.get()));
    }
    case ExprKind::Unary:
      return exprBound(static_cast<const UnaryExpr *>(E)->Sub.get());
    case ExprKind::Unchecked:
      return 0; // Section 6.4: these references are never recorded.
    }
    return Unbounded;
  }

  const Module &M;
  const SemaInfo &Info;
  std::unordered_map<std::string, std::vector<const MethodImpl *>>
      MethodBindings;
  std::unordered_map<const ProcDecl *, int> Memo;
  std::unordered_set<const ProcDecl *> InProgress;
};

} // namespace

StaticRefSetResult analyzeStaticRefSets(const Module &M,
                                        const SemaInfo &Info) {
  Analyzer A(M, Info);
  return A.run();
}

} // namespace alphonse::transform
