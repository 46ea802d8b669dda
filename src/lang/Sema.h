//===- Sema.h - Alphonse-L semantic analysis --------------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic analysis for Alphonse-L: builds object type layouts and
/// vtables, resolves names to frame slots / globals, type-checks every
/// statement and expression, and validates the incremental pragmas
/// (procedures marked (*CACHED*) and methods marked (*MAINTAINED*) must
/// return a value; the DET/TOP/OBS restrictions of Section 3.5 remain
/// programmer obligations, as in the paper: "the above restrictions are
/// not automatically enforced by the Alphonse compiler").
///
/// Sema annotates the AST in place (binding kinds, slot indices, resolved
/// links) and returns side tables in a SemaInfo.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_LANG_SEMA_H
#define ALPHONSE_LANG_SEMA_H

#include "lang/Types.h"
#include "support/Diagnostics.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace alphonse::lang {

/// The builtin procedures available to every module.
enum class Builtin : int {
  Print = 0, ///< print(x): append the rendered value to the output stream.
  Max,       ///< max(a, b: INTEGER): INTEGER.
  Min,       ///< min(a, b: INTEGER): INTEGER.
  Abs,       ///< abs(a: INTEGER): INTEGER.
  Fmt,       ///< fmt(x): TEXT — render any value.
  NumBuiltins,
};

/// Per-procedure resolution results.
struct ProcInfo {
  std::vector<Type> ParamTypes;
  /// Types of the declared locals, in declaration order (frame slots
  /// ParamTypes.size() ... ParamTypes.size() + LocalTypes.size()).
  std::vector<Type> LocalTypes;
  Type RetType = Type::voidType();
  /// Frame slots: parameters first, then locals, then FOR variables.
  int FrameSize = 0;
};

/// Side tables produced by Sema and consumed by the transformer,
/// interpreter, and static partitioner.
struct SemaInfo {
  std::vector<std::unique_ptr<ObjectTypeInfo>> Types;
  std::unordered_map<std::string, ObjectTypeInfo *> TypeByName;
  std::unordered_map<const ProcDecl *, ProcInfo> Procs;
  /// Global variable types, indexed by GlobalDecl::Index.
  std::vector<Type> GlobalTypes;

  const ObjectTypeInfo *lookupType(const std::string &Name) const {
    auto It = TypeByName.find(Name);
    return It == TypeByName.end() ? nullptr : It->second;
  }
  const ProcInfo *procInfo(const ProcDecl *P) const {
    auto It = Procs.find(P);
    return It == Procs.end() ? nullptr : &It->second;
  }
};

/// Runs semantic analysis over \p M. \returns the side tables; check
/// \p Diags for errors before using them.
SemaInfo analyze(Module &M, DiagnosticEngine &Diags);

} // namespace alphonse::lang

#endif // ALPHONSE_LANG_SEMA_H
