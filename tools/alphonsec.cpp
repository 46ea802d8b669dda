//===- alphonsec.cpp - Alphonse-L compiler driver -------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Command-line driver for the Alphonse transformation system:
//
//   alphonsec FILE.alf [options]
//
//   --emit-transformed      print the transformed program (default action)
//   --emit-source           print the unparsed program without transforming
//   --conservative          disable the Section 6.1 check elimination
//   --analyze               report static partitions (Section 6.3) and
//                           static referenced-argument sets (Section 6.2)
//   --run PROC[,ARGS...]    execute PROC with integer arguments; several
//                           specs separated by ';' run in order
//   --mode alphonse|conventional   execution model for --run (default
//                           alphonse)
//   --transactional         run each --run spec as a transactional batch:
//                           a runtime fault rolls the batch back to the
//                           previous quiescent state instead of leaving
//                           the graph half-propagated
//   --stats                 print runtime statistics after --run (printed
//                           even when the run fails, so fault.* and txn.*
//                           counters of degraded runs are visible)
//   --dump-bytecode         disassemble the compiled form of every
//                           procedure and of the global initializers
//   --restore PATH          restore the program state from a checkpoint
//                           (and its delta log) before running --run
//                           specs; the graph rebuilds on first demand,
//                           and a snapshot restores under either --mode
//   --checkpoint PATH       write a snapshot of the program state (heap,
//                           globals, output) after the --run specs
//   --checkpoint-delta PATH append a change record (the storage the --run
//                           specs wrote) to PATH's sidecar log; PATH must
//                           be the --restore or --checkpoint snapshot
//   --fault-seed N          deterministically arm one process-kill fault
//                           at a checkpoint I/O injection site derived
//                           from N (crash-recovery drills from scripts)
//   --deadline-ms N         wall-clock budget per propagation wave: a
//                           wave still running after N ms is cancelled
//                           cooperatively at the next evaluation
//                           boundary, unrepaired values go stale, and
//                           the residue stays parked for a later pump
//   --step-budget N         evaluation-step budget per wave (same
//                           degradation semantics)
//   --mem-ceiling BYTES     slab-memory ceiling per wave (same semantics)
//   --overload-policy P     accept | defer | shed: what a budgeted wave
//                           does when parked residue from a previous
//                           degraded wave still exists (accept = run
//                           anyway, the default)
//
// Every number, in an option or a --run argument, must be a whole decimal
// integer in range (options take no sign); anything else is a usage
// error, reported before anything runs.
//
// The module compiles to bytecode before it runs or is disassembled; a
// procedure that needs more registers than an instruction can address
// (bytecode::MaxRegs) is a compile error.
//
// Exit status: 0 on success, 1 on usage or compile errors, 2 on runtime
// errors — including runs that finish with quarantined nodes, so scripts
// can detect degraded executions — and checkpoint save/restore failures.
// Exit 3 marks a run whose answers are complete but *degraded*: a wave
// budget expired and some values are served stale (gov.* statistics are
// printed to stderr so scripts can see how far propagation got).
//
// ALPHONSE_AUDIT=1 in the environment runs the structural graph audit
// (DepGraph::verify) after every outermost drain and every rollback, and
// aborts the run with the findings on stderr if an invariant is broken
// (DepGraph::Config::Audit).
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "interp/bytecode/Bytecode.h"
#include "interp/bytecode/Compiler.h"
#include "lang/Parser.h"
#include "support/CheckpointIO.h"
#include "support/FaultInjector.h"
#include "transform/StaticPartition.h"
#include "transform/StaticRefSets.h"
#include "transform/Transform.h"
#include "transform/Unparser.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace alphonse;
using namespace alphonse::lang;
using namespace alphonse::interp;

namespace {

/// One --run spec: a procedure and its integer arguments.
struct RunSpec {
  std::string Proc;
  std::vector<long> Args;
};

struct Options {
  std::string InputPath;
  bool EmitTransformed = false;
  bool EmitSource = false;
  bool Conservative = false;
  bool Analyze = false;
  bool Stats = false;
  bool Transactional = false;
  std::vector<RunSpec> Runs;
  std::string RestorePath;
  std::string CheckpointPath;
  std::string DeltaPath;
  uint64_t FaultSeed = 0;
  bool HaveFaultSeed = false;
  ExecMode Mode = ExecMode::Alphonse;
  bool DumpBytecode = false;
  WaveBudget Budget;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: alphonsec FILE.alf [--emit-transformed] [--emit-source]\n"
      "                 [--conservative] [--analyze] [--run PROC[,INT...]]\n"
      "                 [--mode alphonse|conventional] [--transactional]\n"
      "                 [--stats] [--dump-bytecode]\n"
      "                 [--restore PATH]\n"
      "                 [--checkpoint PATH] [--checkpoint-delta PATH]\n"
      "                 [--fault-seed N] [--deadline-ms N] [--step-budget N]\n"
      "                 [--mem-ceiling BYTES] "
      "[--overload-policy accept|defer|shed]\n");
}

/// Parses all of \p Text as a decimal integer of type T: no whitespace, no
/// '+', a '-' only for signed T, and nothing out of T's range.
template <typename T> bool parseNumber(const std::string &Text, T &Out) {
  const char *End = Text.data() + Text.size();
  auto [Ptr, Err] = std::from_chars(Text.data(), End, Out);
  return Err == std::errc() && Ptr == End;
}

/// Parses a --run argument: "Proc" or "Proc,1,2,3", several separated by
/// ';'. Every field after a comma is an argument, so a trailing comma is
/// an empty (malformed) one.
bool parseRunSpecs(const std::string &Text, std::vector<RunSpec> &Out) {
  std::stringstream Specs(Text);
  std::string OneSpec;
  while (std::getline(Specs, OneSpec, ';')) {
    size_t Comma = OneSpec.find(',');
    RunSpec R;
    R.Proc = OneSpec.substr(0, Comma);
    while (Comma != std::string::npos) {
      size_t Next = OneSpec.find(',', Comma + 1);
      std::string ArgText = OneSpec.substr(Comma + 1, Next - Comma - 1);
      Comma = Next;
      long V = 0;
      if (!parseNumber(ArgText, V)) {
        std::fprintf(stderr,
                     "error: --run argument '%s' is not an integer in range\n",
                     ArgText.c_str());
        return false;
      }
      R.Args.push_back(V);
    }
    Out.push_back(std::move(R));
  }
  return true;
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--emit-transformed") {
      Opts.EmitTransformed = true;
    } else if (Arg == "--emit-source") {
      Opts.EmitSource = true;
    } else if (Arg == "--conservative") {
      Opts.Conservative = true;
    } else if (Arg == "--analyze") {
      Opts.Analyze = true;
    } else if (Arg == "--stats") {
      Opts.Stats = true;
    } else if (Arg == "--transactional") {
      Opts.Transactional = true;
    } else if (Arg == "--dump-bytecode") {
      Opts.DumpBytecode = true;
    } else if (Arg == "--run") {
      if (++I >= Argc) {
        std::fprintf(stderr, "error: --run needs an argument\n");
        return false;
      }
      Opts.Runs.clear(); // The last --run wins.
      if (!parseRunSpecs(Argv[I], Opts.Runs))
        return false;
    } else if (Arg == "--mode") {
      if (++I >= Argc) {
        std::fprintf(stderr, "error: --mode needs an argument\n");
        return false;
      }
      std::string M = Argv[I];
      if (M == "alphonse") {
        Opts.Mode = ExecMode::Alphonse;
      } else if (M == "conventional") {
        Opts.Mode = ExecMode::Conventional;
      } else {
        std::fprintf(stderr, "error: unknown mode '%s'\n", M.c_str());
        return false;
      }
    } else if (Arg == "--restore") {
      if (++I >= Argc) {
        std::fprintf(stderr, "error: --restore needs a path\n");
        return false;
      }
      Opts.RestorePath = Argv[I];
    } else if (Arg == "--checkpoint") {
      if (++I >= Argc) {
        std::fprintf(stderr, "error: --checkpoint needs a path\n");
        return false;
      }
      Opts.CheckpointPath = Argv[I];
    } else if (Arg == "--checkpoint-delta") {
      if (++I >= Argc) {
        std::fprintf(stderr, "error: --checkpoint-delta needs a path\n");
        return false;
      }
      Opts.DeltaPath = Argv[I];
    } else if (Arg == "--deadline-ms" || Arg == "--step-budget" ||
               Arg == "--mem-ceiling") {
      if (++I >= Argc) {
        std::fprintf(stderr, "error: %s needs an argument\n", Arg.c_str());
        return false;
      }
      uint64_t N = 0;
      if (!parseNumber(Argv[I], N) ||
          (Arg == "--deadline-ms" && N > UINT64_MAX / 1000)) {
        std::fprintf(stderr,
                     "error: %s needs a non-negative integer in range\n",
                     Arg.c_str());
        return false;
      }
      if (Arg == "--deadline-ms")
        Opts.Budget.DeadlineUs = N * 1000;
      else if (Arg == "--step-budget")
        Opts.Budget.StepBudget = N;
      else
        Opts.Budget.MemCeilingBytes = N;
    } else if (Arg == "--overload-policy") {
      if (++I >= Argc) {
        std::fprintf(stderr, "error: --overload-policy needs an argument\n");
        return false;
      }
      if (!parseOverloadPolicy(Argv[I], Opts.Budget.Policy)) {
        std::fprintf(stderr,
                     "error: unknown overload policy '%s' (accept, defer, "
                     "or shed)\n",
                     Argv[I]);
        return false;
      }
    } else if (Arg == "--fault-seed") {
      if (++I >= Argc) {
        std::fprintf(stderr, "error: --fault-seed needs an argument\n");
        return false;
      }
      if (!parseNumber(Argv[I], Opts.FaultSeed)) {
        std::fprintf(stderr,
                     "error: --fault-seed needs a non-negative integer in "
                     "range\n");
        return false;
      }
      Opts.HaveFaultSeed = true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return false;
    } else if (Opts.InputPath.empty()) {
      Opts.InputPath = Arg;
    } else {
      std::fprintf(stderr, "error: multiple input files\n");
      return false;
    }
  }
  if (Opts.InputPath.empty()) {
    usage();
    return false;
  }
  if (!Opts.EmitSource && !Opts.Analyze && !Opts.DumpBytecode &&
      Opts.Runs.empty() && Opts.RestorePath.empty() &&
      Opts.CheckpointPath.empty() && Opts.DeltaPath.empty())
    Opts.EmitTransformed = true; // Default action.
  return true;
}

/// Prints each procedure's lowered form, then the module initializer.
void dumpBytecode(const Module &M, const interp::bytecode::BytecodeModule &BC) {
  using namespace interp::bytecode;
  for (const auto &P : M.Procs)
    std::printf("%s\n", disassemble(BC.chunk(P.get())).c_str());
  std::printf("%s\n", disassemble(BC.Init).c_str());
}

int runProgram(const Options &Opts, const Module &M, const SemaInfo &Info) {
  Interp I(M, Info, Opts.Mode);
  if (!I.compiled()) {
    // A compile error, not a runtime one: the module never ran.
    std::fprintf(stderr, "%s\n", I.errorMessage().c_str());
    return 1;
  }
  // The budget flags govern every un-annotated pump the run performs
  // (a checkpoint save or append still pumps unbounded, so eager work
  // still pending lands in the saved storage).
  if (!Opts.Budget.unlimited() ||
      Opts.Budget.Policy != OverloadPolicy::Accept)
    I.runtime().setDefaultBudget(Opts.Budget);
  int Status = 0;
  if (!Opts.RestorePath.empty()) {
    try {
      I.restoreCheckpoint(Opts.RestorePath);
      if (!I.restoreNote().empty())
        std::fprintf(stderr, "note: %s\n", I.restoreNote().c_str());
    } catch (const CheckpointError &E) {
      // Structured refusal: the snapshot (or its delta log) does not
      // describe a loadable state for this program. Nothing was accepted.
      std::fprintf(stderr, "checkpoint restore failed: %s\n", E.what());
      return 2;
    }
  }
  for (const RunSpec &R : Opts.Runs) {
    const std::string &Name = R.Proc;
    std::vector<Value> Args;
    for (long A : R.Args)
      Args.push_back(Value::integer(A));
    if (Opts.Transactional) {
      // Each spec is one mutation batch: a fault anywhere in it (or in
      // the commit propagation) rolls the runtime back to the state after
      // the previous spec instead of leaving it half-propagated.
      Transaction Txn(I.runtime());
      Value Result = I.call(Name, std::move(Args));
      if (I.failed()) {
        Txn.rollback();
        std::fprintf(stderr, "runtime error (batch rolled back): %s\n",
                     I.errorMessage().c_str());
        Status = 2;
        break;
      }
      if (!Txn.commit()) {
        const FaultInfo *FI = I.runtime().graph().abortFault();
        std::fprintf(stderr,
                     "transaction aborted (batch rolled back): %s\n",
                     FI ? FI->Message.c_str() : "unknown fault");
        Status = 2;
        break;
      }
      std::printf("%s => %s\n", Name.c_str(), Result.render().c_str());
    } else {
      Value Result = I.call(Name, std::move(Args));
      if (I.failed()) {
        std::fprintf(stderr, "runtime error: %s\n",
                     I.errorMessage().c_str());
        Status = 2;
        break;
      }
      std::printf("%s => %s\n", Name.c_str(), Result.render().c_str());
    }
  }
  if (!Opts.CheckpointPath.empty()) {
    try {
      I.saveCheckpoint(Opts.CheckpointPath);
    } catch (const CheckpointError &E) {
      std::fprintf(stderr, "checkpoint save failed: %s\n", E.what());
      Status = 2;
    }
  }
  if (!Opts.DeltaPath.empty()) {
    try {
      I.appendDelta(Opts.DeltaPath);
    } catch (const CheckpointError &E) {
      std::fprintf(stderr, "checkpoint delta failed: %s\n", E.what());
      Status = 2;
    }
  }
  if (!I.output().empty())
    std::printf("--- program output ---\n%s", I.output().c_str());
  if (Status == 0 && I.runtime().graph().numQuarantined() > 0) {
    // The calls all answered, but some nodes are degraded (faulted and
    // quarantined during eager propagation); scripts need to see that.
    std::fprintf(stderr,
                 "warning: execution finished with %zu quarantined "
                 "node(s)\n",
                 I.runtime().graph().numQuarantined());
    Status = 2;
  }
  if (Status == 0 && I.runtime().degraded()) {
    // Every call answered, but a wave budget expired mid-propagation:
    // some values are the last-quiescent (stale) ones and parked work
    // remains. Exit 3 is the "complete but degraded" signal (mirroring
    // the exit-2 quarantine convention), and the gov.* counters tell
    // scripts how far propagation got.
    const Statistics &S = I.runtime().stats();
    std::fprintf(stderr,
                 "warning: run ended degraded (%llu stale node(s), %llu "
                 "parked)\n",
                 static_cast<unsigned long long>(S.GovStaleNodes.total()),
                 static_cast<unsigned long long>(S.GovParkedNodes.total()));
    std::ostringstream GS;
    GS << S;
    std::string Txt = GS.str();
    // Print just the gov.* block of the statistics dump.
    for (size_t Pos = 0; (Pos = Txt.find("gov.", Pos)) != std::string::npos;) {
      size_t End = Txt.find('\n', Pos);
      std::fprintf(stderr, "%s\n",
                   Txt.substr(Pos, End - Pos).c_str());
      Pos = End == std::string::npos ? Txt.size() : End + 1;
    }
    Status = 3;
  }
  // Stats print even for failed runs: the fault.* and txn.* counters are
  // exactly what a degraded run needs to report.
  if (Opts.Stats) {
    std::ostringstream OS;
    OS << I.runtime().stats();
    std::printf("--- runtime statistics ---\n%s", OS.str().c_str());
  }
  return Status;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 1;

  // --fault-seed: deterministically arm one process kill at a checkpoint
  // I/O injection site. A snapshot pass hits "ckpt.io" 7 times (6 inside
  // the temp-write/fsync/rename protocol, 1 before the delta-log reset)
  // and a delta append hits "ckpt.delta.io" 4 times; the seed picks one
  // of the 11 slots, so sweeping N over 0..10 covers every kill point.
  FaultInjector Injector;
  std::unique_ptr<FaultInjector::Scope> InjectorScope;
  if (Opts.HaveFaultSeed) {
    uint64_t Slot = Opts.FaultSeed % 11;
    if (Slot < 7) {
      Injector.armKill("ckpt.io", Slot + 1);
      std::fprintf(stderr, "fault-seed %llu: kill at ckpt.io hit %llu\n",
                   static_cast<unsigned long long>(Opts.FaultSeed),
                   static_cast<unsigned long long>(Slot + 1));
    } else {
      Injector.armKill("ckpt.delta.io", Slot - 6);
      std::fprintf(stderr,
                   "fault-seed %llu: kill at ckpt.delta.io hit %llu\n",
                   static_cast<unsigned long long>(Opts.FaultSeed),
                   static_cast<unsigned long long>(Slot - 6));
    }
    InjectorScope = std::make_unique<FaultInjector::Scope>(Injector);
  }

  std::ifstream In(Opts.InputPath);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n",
                 Opts.InputPath.c_str());
    return 1;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  DiagnosticEngine Diags;
  Module M = parseModule(Buffer.str(), Diags);
  SemaInfo Info = analyze(M, Diags);
  if (Diags.hasErrors()) {
    Diags.print(std::cerr);
    return 1;
  }
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Kind == DiagKind::Warning)
      std::cerr << D.Loc.str() << ": warning: " << D.Message << '\n';

  if (Opts.EmitSource)
    std::printf("%s", transform::unparse(M).c_str());

  transform::TransformOptions TOpts;
  TOpts.OptimizeLocalAccesses = !Opts.Conservative;
  TOpts.OptimizeCallChecks = !Opts.Conservative;
  transform::TransformStats TS = transform::transform(M, Info, TOpts);

  if (Opts.EmitTransformed) {
    std::printf("%s", transform::unparse(M).c_str());
    std::printf("(* instrumentation: %llu/%llu reads, %llu/%llu writes, "
                "%llu/%llu calls *)\n",
                static_cast<unsigned long long>(TS.ReadsWrapped),
                static_cast<unsigned long long>(TS.ReadsTotal),
                static_cast<unsigned long long>(TS.WritesWrapped),
                static_cast<unsigned long long>(TS.WritesTotal),
                static_cast<unsigned long long>(TS.CallsChecked),
                static_cast<unsigned long long>(TS.CallsTotal));
  }

  bool Run = !Opts.Runs.empty() || !Opts.RestorePath.empty() ||
             !Opts.CheckpointPath.empty() || !Opts.DeltaPath.empty();
  if (Opts.DumpBytecode) {
    // The (transformed) module as Interp's constructor compiles it.
    DiagnosticEngine CompileDiags;
    auto BC = interp::bytecode::compileModule(M, Info, CompileDiags);
    if (!BC) {
      CompileDiags.print(std::cerr);
      return 1;
    }
    dumpBytecode(M, *BC);
  }

  if (Opts.Analyze) {
    transform::StaticPartitionResult SP =
        transform::computeStaticPartitions(M, Info);
    std::printf("static partitions: %d component(s)\n", SP.NumComponents);
    for (const auto &P : M.Procs)
      std::printf("  proc %-16s component %d\n", P->Name.c_str(),
                  SP.ProcComponent.at(P.get()));
    transform::StaticRefSetResult RS =
        transform::analyzeStaticRefSets(M, Info);
    std::printf("referenced-argument sets (Section 6.2):\n");
    for (const auto &P : M.Procs) {
      const transform::RefSetInfo *RI = RS.info(P.get());
      if (RI->IsStatic)
        std::printf("  proc %-16s static, |R(p)| <= %d\n",
                    P->Name.c_str(), RI->Bound);
      else
        std::printf("  proc %-16s dynamic\n", P->Name.c_str());
    }
  }

  return Run ? runProgram(Opts, M, Info) : 0;
}
