//===- StaticRefSets.h - Static referenced-argument analysis ----*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 6.2 of the paper: "As the referenced argument set for many
/// Alphonse procedures is static, the compiler could generate a similar
/// subgraph" — i.e. for procedures whose R(p) has a statically bounded
/// shape, the dependency subgraph could be emitted at compile time like a
/// grammar production's, skipping the dynamic recording overhead.
///
/// This analysis identifies those procedures and computes an upper bound
/// on |R(p)|. The rules mirror the paper's example (R(t.height()) =
/// {t.left, t.left.height(), t.right, t.right.height()} is static even
/// though the *transitive* data is a whole subtree, because calls to
/// incremental procedures terminate the set):
///
///  - reads of locals/parameters contribute nothing;
///  - reads of top-level variables and object fields contribute one
///    element each;
///  - calls to incremental procedures/methods contribute one element;
///  - calls to conventional procedures inline that procedure's own
///    bound (recursion makes the set unbounded);
///  - loops (WHILE/FOR) make the set unbounded;
///  - a method name with no whole-program binding, or an unresolved call,
///    makes the set unbounded.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_TRANSFORM_STATICREFSETS_H
#define ALPHONSE_TRANSFORM_STATICREFSETS_H

#include "lang/Sema.h"

#include <unordered_map>

namespace alphonse::transform {

/// Classification of one procedure's referenced-argument set.
struct RefSetInfo {
  /// True when |R(p)| is bounded by a compile-time constant.
  bool IsStatic = false;
  /// The bound, valid when IsStatic (0 for pure combinators).
  int Bound = 0;
};

/// Per-procedure results; every procedure in the module is classified
/// (incremental or not — conventional procedures matter because their
/// refs inline into incremental callers).
struct StaticRefSetResult {
  std::unordered_map<const lang::ProcDecl *, RefSetInfo> Procs;

  const RefSetInfo *info(const lang::ProcDecl *P) const {
    auto It = Procs.find(P);
    return It == Procs.end() ? nullptr : &It->second;
  }
};

/// Runs the analysis over the whole module.
StaticRefSetResult analyzeStaticRefSets(const lang::Module &M,
                                        const lang::SemaInfo &Info);

} // namespace alphonse::transform

#endif // ALPHONSE_TRANSFORM_STATICREFSETS_H
