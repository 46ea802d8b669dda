//===- AST.h - Alphonse-L abstract syntax -----------------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax of Alphonse-L: the base language of Section 3.1 of the
/// paper (records with data/pointer/procedure-valued fields, inheritance
/// and overrides, dynamic allocation, pragmas) in Modula-3 notation
/// (Section 3.2).
///
/// Nodes carry two kinds of annotation filled in by later phases:
///  - resolution data from Sema (binding kinds, slot indices, type links);
///  - transformation flags from the Section 5 transformer (TrackedAccess,
///    TrackedModify, CheckedCall) marking where the access/modify/call
///    operations were inserted. The unparser renders flagged nodes as
///    access(...) / modify(...) / call(...) exactly like Algorithm 2.
///
/// LLVM-style kind tags + static casts are used instead of RTTI.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_LANG_AST_H
#define ALPHONSE_LANG_AST_H

#include "graph/DepNode.h" // EvalStrategy
#include "support/SourceLocation.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace alphonse::lang {

class ObjectTypeInfo;
struct ProcDecl;

//===----------------------------------------------------------------------===//
// Pragmas
//===----------------------------------------------------------------------===//

/// Which incremental pragma a procedure or method binding carries.
enum class ProcPragma : uint8_t {
  None,       ///< Conventional procedure.
  Maintained, ///< (*MAINTAINED*): incremental method (Section 3.3).
  Cached,     ///< (*CACHED*): memoized procedure (Section 3.3).
};

/// Parsed pragma: kind plus the optional DEMAND/EAGER strategy argument.
struct PragmaInfo {
  ProcPragma Kind = ProcPragma::None;
  EvalStrategy Strategy = EvalStrategy::Demand;

  bool isIncremental() const { return Kind != ProcPragma::None; }
};

//===----------------------------------------------------------------------===//
// Type references (syntactic)
//===----------------------------------------------------------------------===//

/// A type name as written: INTEGER, BOOLEAN, TEXT, or an object type.
struct TypeRef {
  std::string Name;
  SourceLocation Loc;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind : uint8_t {
  IntLit,
  BoolLit,
  TextLit,
  NilLit,
  NameRef,
  FieldAccess,
  Call,
  MethodCall,
  New,
  Binary,
  Unary,
  Unchecked,
};

/// Base class of all expressions.
struct Expr {
  ExprKind Kind;
  SourceLocation Loc;
  /// Set by the transformer on storage reads rewritten to access(v)
  /// (Algorithm 3).
  bool TrackedAccess = false;

  virtual ~Expr();

protected:
  Expr(ExprKind Kind, SourceLocation Loc) : Kind(Kind), Loc(Loc) {}
};

using ExprPtr = std::unique_ptr<Expr>;

struct IntLitExpr final : Expr {
  IntLitExpr(SourceLocation Loc, long Value)
      : Expr(ExprKind::IntLit, Loc), Value(Value) {}
  long Value;
};

struct BoolLitExpr final : Expr {
  BoolLitExpr(SourceLocation Loc, bool Value)
      : Expr(ExprKind::BoolLit, Loc), Value(Value) {}
  bool Value;
};

struct TextLitExpr final : Expr {
  TextLitExpr(SourceLocation Loc, std::string Value)
      : Expr(ExprKind::TextLit, Loc), Value(std::move(Value)) {}
  std::string Value;
};

struct NilLitExpr final : Expr {
  explicit NilLitExpr(SourceLocation Loc) : Expr(ExprKind::NilLit, Loc) {}
};

/// How a NameRef resolved (filled by Sema).
enum class NameBinding : uint8_t { Unresolved, Local, Param, Global };

/// A bare identifier: local, parameter, or top-level variable.
struct NameRefExpr final : Expr {
  NameRefExpr(SourceLocation Loc, std::string Name)
      : Expr(ExprKind::NameRef, Loc), Name(std::move(Name)) {}
  std::string Name;
  NameBinding Binding = NameBinding::Unresolved;
  /// Frame slot (Local/Param) or global index.
  int Index = -1;
};

/// o.f where f is a data or pointer field.
struct FieldAccessExpr final : Expr {
  FieldAccessExpr(SourceLocation Loc, ExprPtr Base, std::string Field)
      : Expr(ExprKind::FieldAccess, Loc), Base(std::move(Base)),
        Field(std::move(Field)) {}
  ExprPtr Base;
  std::string Field;
  /// Field slot in the object layout (Sema).
  int FieldIndex = -1;
};

/// p(a1, ..., ak) — top-level procedure or builtin call.
struct CallExpr final : Expr {
  CallExpr(SourceLocation Loc, std::string Callee)
      : Expr(ExprKind::Call, Loc), Callee(std::move(Callee)) {}
  std::string Callee;
  std::vector<ExprPtr> Args;
  /// Resolved user procedure (Sema), or nullptr for builtins.
  const ProcDecl *Resolved = nullptr;
  /// Builtin index (Sema), -1 if a user procedure.
  int BuiltinIndex = -1;
  /// Set by the transformer: rewritten to call(p, ...) (Algorithm 5).
  bool CheckedCall = false;
};

/// o.m(a1, ..., ak) — dynamically dispatched method call.
struct MethodCallExpr final : Expr {
  MethodCallExpr(SourceLocation Loc, ExprPtr Base, std::string Method)
      : Expr(ExprKind::MethodCall, Loc), Base(std::move(Base)),
        Method(std::move(Method)) {}
  ExprPtr Base;
  std::string Method;
  std::vector<ExprPtr> Args;
  /// VTable slot (Sema).
  int MethodSlot = -1;
  /// Set by the transformer: rewritten to call(o.m, ...) (Algorithm 5).
  bool CheckedCall = false;
};

/// NEW(T) — dynamic allocation (Section 3.1 requires it).
struct NewExpr final : Expr {
  NewExpr(SourceLocation Loc, std::string TypeName)
      : Expr(ExprKind::New, Loc), TypeName(std::move(TypeName)) {}
  std::string TypeName;
  const ObjectTypeInfo *Resolved = nullptr;
};

enum class BinaryOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And,
  Or,
  Concat,
};

struct BinaryExpr final : Expr {
  BinaryExpr(SourceLocation Loc, BinaryOp Op, ExprPtr Lhs, ExprPtr Rhs)
      : Expr(ExprKind::Binary, Loc), Op(Op), Lhs(std::move(Lhs)),
        Rhs(std::move(Rhs)) {}
  BinaryOp Op;
  ExprPtr Lhs;
  ExprPtr Rhs;
};

enum class UnaryOp : uint8_t { Neg, Not };

struct UnaryExpr final : Expr {
  UnaryExpr(SourceLocation Loc, UnaryOp Op, ExprPtr Sub)
      : Expr(ExprKind::Unary, Loc), Op(Op), Sub(std::move(Sub)) {}
  UnaryOp Op;
  ExprPtr Sub;
};

/// (*UNCHECKED*) e — the Section 6.4 pragma: dependencies arising inside
/// e are not recorded for the enclosing incremental procedure.
struct UncheckedExpr final : Expr {
  UncheckedExpr(SourceLocation Loc, ExprPtr Sub)
      : Expr(ExprKind::Unchecked, Loc), Sub(std::move(Sub)) {}
  ExprPtr Sub;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind : uint8_t { Assign, If, While, For, Return, Expr };

struct Stmt {
  StmtKind Kind;
  SourceLocation Loc;

  virtual ~Stmt();

protected:
  Stmt(StmtKind Kind, SourceLocation Loc) : Kind(Kind), Loc(Loc) {}
};

using StmtPtr = std::unique_ptr<Stmt>;

/// lvalue := expr.
struct AssignStmt final : Stmt {
  AssignStmt(SourceLocation Loc, ExprPtr Target, ExprPtr Value)
      : Stmt(StmtKind::Assign, Loc), Target(std::move(Target)),
        Value(std::move(Value)) {}
  ExprPtr Target; ///< NameRef or FieldAccess.
  ExprPtr Value;
  /// Set by the transformer: rewritten to modify(l, v) (Algorithm 4).
  bool TrackedModify = false;
};

/// IF c THEN ... ELSIF c THEN ... ELSE ... END.
struct IfStmt final : Stmt {
  struct Arm {
    ExprPtr Cond;
    std::vector<StmtPtr> Body;
  };
  explicit IfStmt(SourceLocation Loc) : Stmt(StmtKind::If, Loc) {}
  std::vector<Arm> Arms;
  std::vector<StmtPtr> ElseBody;
};

/// WHILE c DO ... END.
struct WhileStmt final : Stmt {
  WhileStmt(SourceLocation Loc, ExprPtr Cond)
      : Stmt(StmtKind::While, Loc), Cond(std::move(Cond)) {}
  ExprPtr Cond;
  std::vector<StmtPtr> Body;
};

/// FOR i := a TO b DO ... END. The index variable is a fresh local.
struct ForStmt final : Stmt {
  ForStmt(SourceLocation Loc, std::string Var)
      : Stmt(StmtKind::For, Loc), Var(std::move(Var)) {}
  std::string Var;
  /// Local slot of the index variable (Sema).
  int VarIndex = -1;
  ExprPtr From;
  ExprPtr To;
  std::vector<StmtPtr> Body;
};

/// RETURN [expr].
struct ReturnStmt final : Stmt {
  ReturnStmt(SourceLocation Loc, ExprPtr Value)
      : Stmt(StmtKind::Return, Loc), Value(std::move(Value)) {}
  ExprPtr Value; ///< May be null.
};

/// An expression evaluated for effect (a call).
struct ExprStmt final : Stmt {
  ExprStmt(SourceLocation Loc, ExprPtr E)
      : Stmt(StmtKind::Expr, Loc), E(std::move(E)) {}
  ExprPtr E;
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

struct ParamDecl {
  std::string Name;
  TypeRef Type;
  SourceLocation Loc;
};

struct LocalDecl {
  std::string Name;
  TypeRef Type;
  ExprPtr Init; ///< May be null (default-initialized).
  SourceLocation Loc;
};

/// PROCEDURE Name(params) : Ret = VAR locals BEGIN body END Name;
struct ProcDecl {
  std::string Name;
  SourceLocation Loc;
  std::vector<ParamDecl> Params;
  std::optional<TypeRef> RetType;
  std::vector<LocalDecl> Locals;
  std::vector<StmtPtr> Body;
  /// (*CACHED*) on the declaration; MAINTAINED arrives via method
  /// bindings instead (Section 3.3).
  PragmaInfo Pragma;
  /// True once any type binds this procedure as a MAINTAINED method
  /// (Sema). Affects the runtime call protocol for method dispatch.
  bool BoundAsMaintained = false;
  int Index = -1; ///< Position in Module::Procs (Sema).
};

struct FieldDecl {
  std::string Name;
  TypeRef Type;
  SourceLocation Loc;
};

/// METHODS m(args) : T := Impl; possibly with (*MAINTAINED*).
struct MethodDecl {
  PragmaInfo Pragma;
  std::string Name;
  std::vector<ParamDecl> Params; ///< Excludes the receiver.
  std::optional<TypeRef> RetType;
  std::string ImplName;
  SourceLocation Loc;
};

/// OVERRIDES m := Impl; possibly with (*MAINTAINED*).
struct OverrideDecl {
  PragmaInfo Pragma;
  std::string Name;
  std::string ImplName;
  SourceLocation Loc;
};

/// TYPE Name = Super OBJECT fields METHODS ... OVERRIDES ... END;
struct TypeDecl {
  std::string Name;
  std::string SuperName; ///< Empty for a root object type.
  std::vector<FieldDecl> Fields;
  std::vector<MethodDecl> Methods;
  std::vector<OverrideDecl> Overrides;
  SourceLocation Loc;
};

/// VAR name : T [:= init]; at top level.
struct GlobalDecl {
  std::string Name;
  TypeRef Type;
  ExprPtr Init; ///< May be null.
  SourceLocation Loc;
  int Index = -1; ///< Global slot (Sema).
};

/// One Alphonse-L compilation unit.
struct Module {
  std::vector<TypeDecl> Types;
  std::vector<GlobalDecl> Globals;
  std::vector<std::unique_ptr<ProcDecl>> Procs;

  /// Finds a procedure by name, or nullptr.
  ProcDecl *findProc(const std::string &Name) {
    for (auto &P : Procs)
      if (P->Name == Name)
        return P.get();
    return nullptr;
  }
  const ProcDecl *findProc(const std::string &Name) const {
    return const_cast<Module *>(this)->findProc(Name);
  }
};

} // namespace alphonse::lang

#endif // ALPHONSE_LANG_AST_H
