//===- Differential.h - VM versus reference script runner -------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one driver script through the interpreter (either mode, any
/// worker count) or through the graph-free reference evaluator, and
/// records everything observable in the same shape, so a test compares
/// the two with plain equality. checkDifferential is the one comparison
/// BytecodeDiffTest and EquivalenceTest share.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_TESTS_INTERP_DIFFERENTIAL_H
#define ALPHONSE_TESTS_INTERP_DIFFERENTIAL_H

#include "interp/Interp.h"
#include "interp/Reference.h"
#include "lang/CompileTestHelper.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace alphonse::testing {

/// A driver step: call a procedure with integer arguments.
struct Step {
  std::string Proc;
  std::vector<long> Args;
};

/// Everything one engine observably produced for a script. Objects render
/// as <TypeName>, which does not depend on heap identity.
struct RunResult {
  std::vector<std::string> Rendered; ///< Per-step results ("!" = failed).
  std::vector<std::string> Globals;  ///< Final values, declaration order.
  std::string Output;
  bool Failed = false;
  std::string Error;
  size_t Quarantined = 0; ///< Interpreter only.
  size_t Pending = 0;     ///< Interpreter only.
};

/// Runs \p Script on a fresh interpreter. A failing step records the
/// error and stops the script.
inline RunResult runVM(const Compiled &C, const std::vector<Step> &Script,
                       interp::ExecMode Mode, unsigned Workers) {
  DepGraph::Config Cfg;
  Cfg.Workers = Workers;
  interp::Interp I(C.M, C.Info, Mode, Cfg);
  RunResult R;
  for (const Step &S : Script) {
    std::vector<interp::Value> Args;
    for (long A : S.Args)
      Args.push_back(interp::Value::integer(A));
    interp::Value V = I.call(S.Proc, std::move(Args));
    if (I.failed()) {
      R.Failed = true;
      R.Error = I.errorMessage();
      R.Rendered.push_back("!");
      break;
    }
    R.Rendered.push_back(V.render());
  }
  for (const lang::GlobalDecl &G : C.M.Globals)
    R.Globals.push_back(I.global(G.Name).render());
  R.Output = I.output();
  R.Quarantined = I.runtime().graph().numQuarantined();
  R.Pending = I.runtime().graph().numPending();
  return R;
}

/// Runs \p Script on a fresh reference evaluator, with the same stopping
/// rule as runVM.
inline RunResult runReference(const Compiled &C,
                              const std::vector<Step> &Script) {
  reference::Evaluator E(C.M, C.Info);
  RunResult R;
  for (const Step &S : Script) {
    std::vector<reference::RefValue> Args;
    for (long A : S.Args)
      Args.push_back(reference::RefValue::integer(A));
    reference::RefValue V = E.call(S.Proc, std::move(Args));
    if (E.failed()) {
      R.Failed = true;
      R.Error = E.errorMessage();
      R.Rendered.push_back("!");
      break;
    }
    R.Rendered.push_back(V.render());
  }
  for (const lang::GlobalDecl &G : C.M.Globals)
    R.Globals.push_back(E.global(G.Index).render());
  R.Output = E.output();
  return R;
}

inline const char *modeName(interp::ExecMode Mode) {
  return Mode == interp::ExecMode::Alphonse ? "alphonse" : "conventional";
}

/// The differential check of both interpreter suites: the reference is
/// the oracle, and the VM must match it in both modes at Workers = 0 and
/// Workers = 4 (each step's result, the final globals, the output, and
/// the error). Quarantine and pending work, which the reference does not
/// have, must not depend on the worker count. Returns the reference's run.
inline RunResult checkDifferential(const Compiled &C,
                                   const std::vector<Step> &Script) {
  RunResult Ref = runReference(C, Script);
  for (interp::ExecMode Mode :
       {interp::ExecMode::Conventional, interp::ExecMode::Alphonse}) {
    RunResult Serial;
    for (unsigned Workers : {0u, 4u}) {
      RunResult VM = runVM(C, Script, Mode, Workers);
      SCOPED_TRACE(std::string(modeName(Mode)) +
                   " workers=" + std::to_string(Workers));
      EXPECT_EQ(Ref.Rendered, VM.Rendered);
      EXPECT_EQ(Ref.Globals, VM.Globals);
      EXPECT_EQ(Ref.Output, VM.Output);
      EXPECT_EQ(Ref.Failed, VM.Failed);
      EXPECT_EQ(Ref.Error, VM.Error);
      if (Workers == 0) {
        Serial = VM;
        continue;
      }
      EXPECT_EQ(Serial.Quarantined, VM.Quarantined);
      EXPECT_EQ(Serial.Pending, VM.Pending);
    }
  }
  return Ref;
}

} // namespace alphonse::testing

#endif // ALPHONSE_TESTS_INTERP_DIFFERENTIAL_H
