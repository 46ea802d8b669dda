//===- Reference.h - graph-free Alphonse-L reference evaluator --*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A second, independent implementation of Alphonse-L's conventional
/// semantics, used as the oracle of the interpreter's differential tests.
/// It walks the Sema-checked tree with plain frames, globals and heap
/// records, and ignores pragmas and transformation flags: every call runs
/// its body, and every read and write goes straight to storage. It
/// constructs no Runtime, DepGraph or Interp and shares no code with the
/// bytecode compiler or VM. It shares the front end's output and the
/// language's call-depth limit (Interp::MaxNestedCalls).
///
/// Theorem 5.1 says Alphonse execution produces the output of this
/// conventional execution, so the VM in both modes must match it: results,
/// print output, and runtime errors (message and source location).
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_TESTS_INTERP_REFERENCE_H
#define ALPHONSE_TESTS_INTERP_REFERENCE_H

#include "lang/Sema.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace alphonse::reference {

struct Object;

/// A dynamically typed value: the five kinds of Alphonse-L.
struct RefValue {
  enum class Kind : uint8_t { Nil, Int, Bool, Text, Object };

  Kind K = Kind::Nil;
  long Int = 0;
  bool Bool = false;
  std::string Text;
  Object *Obj = nullptr;

  static RefValue integer(long V);
  static RefValue boolean(bool V);
  static RefValue text(std::string V);
  static RefValue object(Object *O);

  /// Structural for scalars, identity for objects.
  friend bool operator==(const RefValue &A, const RefValue &B);

  /// The print/fmt rendering: NIL, 42, TRUE, the text, or <TypeName>.
  std::string render() const;
};

/// A heap record: its dynamic type and one value per field.
struct Object {
  const lang::ObjectTypeInfo *Ty;
  std::vector<RefValue> Fields;
};

/// Evaluates one analyzed module conventionally.
class Evaluator {
public:
  /// Runs the global initializers in declaration order. \p M and \p Info
  /// must outlive the evaluator.
  Evaluator(const lang::Module &M, const lang::SemaInfo &Info);

  /// Calls a top-level procedure. After a runtime error, returns NIL and
  /// does nothing; failed()/errorMessage() describe the first error.
  RefValue call(const std::string &ProcName, std::vector<RefValue> Args);

  bool failed() const { return Failed; }
  const std::string &errorMessage() const { return ErrorMessage; }
  /// Everything print() emitted so far.
  const std::string &output() const { return Output; }
  /// The current value of the top-level variable with GlobalDecl::Index
  /// \p Index.
  const RefValue &global(int Index) const {
    return Globals[static_cast<size_t>(Index)];
  }

private:
  struct Frame {
    std::vector<RefValue> Slots;
    bool Returned = false;
    RefValue Ret;
  };

  RefValue run(const lang::ProcDecl *P, std::vector<RefValue> Args);
  void exec(const std::vector<lang::StmtPtr> &Stmts, Frame &F);
  void exec(const lang::Stmt *S, Frame &F);
  RefValue eval(const lang::Expr *E, Frame &F);
  RefValue evalCall(const lang::CallExpr *C, Frame &F);
  RefValue evalMethodCall(const lang::MethodCallExpr *C, Frame &F);
  RefValue evalBinary(const lang::BinaryExpr *B, Frame &F);
  RefValue zero(const lang::Type &Ty) const;
  [[noreturn]] void fail(SourceLocation Loc, const std::string &Message);

  const lang::Module &M;
  const lang::SemaInfo &Info;
  std::vector<RefValue> Globals;
  std::vector<std::unique_ptr<Object>> Heap;
  std::string Output;
  int Depth = 0;
  bool Failed = false;
  std::string ErrorMessage;
};

} // namespace alphonse::reference

#endif // ALPHONSE_TESTS_INTERP_REFERENCE_H
