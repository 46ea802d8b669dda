//===- LangAvl.cpp - lang_avl: the AVL program through the interpreter ----===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Closed loop, one client, Interp with the bytecode tier. The program is
// lang_avl.alf: Algorithm 11's AVL tree (maintained methods, built
// dynamically) plus a cone of nullary CACHED procedures over globals (the
// plan-eligible shape of DESIGN.md Section 14). The op stream is seeded
// Contains / Insert / Erase / cone-demand calls; every group of K ops
// appends a checkpoint delta over the epoch's base snapshot.
//
// The oracle is the same call stream run in lockstep by a second
// interpreter in ExecMode::Conventional (Theorem 5.1): every call runs on
// both, the cone's answers are compared on every op and membership on
// every fourth (the conventional Contains rebalances the whole tree), with
// a std::set checking membership on all of them. Every 2000 ops the epoch ends: the state is restored
// into a fresh interpreter and checked, and the workload is rebuilt from
// a cold start, which keeps the heap (the interpreter has no collector)
// and the delta log the same size in every epoch.
//
// Loads the language front end and the transformer (set-up), VM dispatch,
// static and dynamic call paths, and checkpoint deltas; running the same
// algorithm as avl_churn isolates the interpreter's cost.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "interp/Interp.h"
#include "lang/Parser.h"
#include "transform/Transform.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

using namespace alphonse;
using namespace alphonse::interp;

namespace perfbench {
namespace {

constexpr int NumKeys = 256;
constexpr int KeySpace = 2 * NumKeys;

enum class Kind : uint8_t { Contains, Insert, Erase, Cone };

struct Compiled {
  lang::Module M;
  lang::SemaInfo Info;
  DiagnosticEngine Diags;
};

class LangAvl : public Workload {
public:
  explicit LangAvl(const RunConfig &C)
      : Workload(C), Ops(C.Seed, 0x1a1), Popular(KeySpace, 1.1),
        Path(C.WorkDir + "/lang_avl.ckpt") {
    std::ifstream In(C.ProgramPath);
    if (!In)
      throw std::runtime_error("cannot read " + C.ProgramPath);
    std::stringstream SS;
    SS << In.rdbuf();
    Source = SS.str();
    Rng P(C.Seed, 0x1a2);
    RankToKey.resize(KeySpace);
    for (int I = 0; I < KeySpace; ++I)
      RankToKey[I] = I;
    for (int I = KeySpace - 1; I > 0; --I)
      std::swap(RankToKey[I], RankToKey[P.below(I + 1)]);
  }

  void setup(Tracer *T) override {
    Prog = std::make_unique<Compiled>();
    {
      Span Sp(T, "lang::parseModule", "lang");
      Prog->M = lang::parseModule(Source, Prog->Diags);
    }
    {
      Span Sp(T, "lang::analyze", "lang");
      Prog->Info = lang::analyze(Prog->M, Prog->Diags);
    }
    if (Prog->Diags.hasErrors())
      throw std::runtime_error("lang_avl.alf does not compile");
    {
      Span Sp(T, "transform::transform", "transform");
      transform::transform(Prog->M, Prog->Info, transform::TransformOptions());
    }
    {
      Span Sp(T, "Interp::Interp", "interp");
      Live = std::make_unique<Interp>(Prog->M, Prog->Info, ExecMode::Alphonse);
    }
    Keys = initialKeys();
    Live->call("Init");
    for (int K : Keys)
      Live->call("Insert", {Value::integer(K)});
    {
      // The epoch's base snapshot, taken before the first rebalance.
      Span Sp(T, "Interp::saveCheckpoint", "ckpt", &Live->runtime().stats());
      Live->saveCheckpoint(Path);
    }
    Span Sp(T, "Interp::call(Contains)", "interp", &Live->runtime().stats());
    Live->call("Contains", {Value::integer(*Keys.begin())});
    Live->call("All");
    if (Live->failed())
      throw std::runtime_error("lang_avl set-up: " + Live->errorMessage());
  }

  /// The lockstep conventional interpreter.
  void setupOracle() override {
    Oracle = std::make_unique<Interp>(Prog->M, Prog->Info,
                                      ExecMode::Conventional);
    Oracle->call("Init");
    Present.assign(Keys.begin(), Keys.end());
    for (int K : Keys)
      Oracle->call("Insert", {Value::integer(K)});
    Globals.fill(0);
  }

  void teardown() override {
    Live.reset();
    Oracle.reset();
    Prog.reset();
  }

  void prepare() override {
    uint64_t Roll = Mix.next(Ops);
    if (Roll < 40) {
      Op = Kind::Contains;
      Key = RankToKey[Popular.sample(Ops)];
    } else if (Roll < 55 && Keys.size() < KeySpace) {
      Op = Kind::Insert;
      do
        Key = static_cast<int>(Ops.below(KeySpace));
      while (Keys.count(Key));
    } else if (Roll < 70 && !Present.empty()) {
      Op = Kind::Erase;
      Key = Present[Ops.below(Present.size())];
    } else {
      Op = Kind::Cone;
      Key = static_cast<int>(Ops.below(8));
      Poked = static_cast<int>(Ops.below(1000));
    }
    Hash.add(static_cast<uint64_t>(Op) << 32 | static_cast<uint32_t>(Key));
  }

  void apply(Tracer *T) override {
    const Statistics *St = T ? &Live->runtime().stats() : nullptr;
    Value K = Value::integer(Key);
    switch (Op) {
    case Kind::Insert: {
      Span Sp(T, "Interp::call(Insert)", "interp", St);
      Live->call("Insert", {K});
      break;
    }
    case Kind::Erase: {
      Span Sp(T, "Interp::call(Erase)", "interp", St);
      Live->call("Erase", {K});
      break;
    }
    case Kind::Cone: {
      {
        Span Sp(T, "Interp::call(Poke)", "interp", St);
        Live->call("Poke", {K, Value::integer(Poked)});
      }
      PendingPeak = std::max(PendingPeak, Live->runtime().graph().numPending());
      Span Sp(T, "Interp::call(All)", "interp", St);
      Answer = Live->call("All");
      return;
    }
    case Kind::Contains:
      break;
    }
    PendingPeak = std::max(PendingPeak, Live->runtime().graph().numPending());
    Span Sp(T, "Interp::call(Contains)", "interp", St);
    Answer = Live->call("Contains", {K});
  }

  bool check() override {
    Value K = Value::integer(Key);
    // Every call also runs on the conventional interpreter. Its Contains
    // rebalances the whole tree exhaustively, so membership answers are
    // compared with it on every fourth op and with the std::set on all.
    bool AskOracle = ++Checks % 4 == 0;
    bool OracleOk = true;
    Value Expected;
    switch (Op) {
    case Kind::Insert:
      Oracle->call("Insert", {K});
      Keys.insert(Key);
      Present.push_back(Key);
      Expected = Value::boolean(true);
      break;
    case Kind::Erase:
      Oracle->call("Erase", {K});
      Keys.erase(Key);
      Present[std::find(Present.begin(), Present.end(), Key) -
              Present.begin()] = Present.back();
      Present.pop_back();
      Expected = Value::boolean(false);
      break;
    case Kind::Contains:
      Expected = Value::boolean(Keys.count(Key) != 0);
      break;
    case Kind::Cone:
      Oracle->call("Poke", {K, Value::integer(Poked)});
      Globals[Key] = Poked;
      Expected = Oracle->call("All");
      OracleOk = Expected == Value::integer(coneValue());
      break;
    }
    if (Op != Kind::Cone && AskOracle)
      OracleOk = Oracle->call("Contains", {K}) == Expected;
    if (corruptNow())
      Expected = Op == Kind::Cone
                     ? Value::integer(-1)
                     : Value::boolean(!(Expected == Value::boolean(true)));
    return OracleOk && Answer == Expected && !Live->failed() &&
           !Oracle->failed() && Live->runtime().graph().numQuarantined() == 0;
  }

  size_t durableEvery() const override { return 50; }

  void durable(Tracer *T) override {
    Statistics &St = Live->runtime().stats();
    uint64_t Before = St.CkptBytesWritten;
    {
      Span Sp(T, "Interp::appendDelta", "ckpt", &St);
      Live->appendDelta(Path);
    }
    DeltaBytes += static_cast<double>(St.CkptBytesWritten - Before);
    ++Deltas;
  }

  size_t epochOps() const override { return 2000; }

  void restore(Tracer *T) override {
    Span Sp(T, "restore", "ckpt");
    Restored =
        std::make_unique<Interp>(Prog->M, Prog->Info, ExecMode::Alphonse);
    Restored->restoreCheckpoint(Path);
    RestoredAll = Restored->call("All");
    RestoredHit = Restored->call("Contains", {Value::integer(*Keys.begin())});
  }

  bool checkRestore() override {
    bool Ok = !Restored->failed() &&
              RestoredAll == Value::integer(coneValue()) &&
              RestoredHit == Value::boolean(true) &&
              Restored->runtime().graph().verify().empty();
    for (int K = 0; Ok && K < KeySpace; K += 37)
      Ok = Restored->call("Contains", {Value::integer(K)}) ==
           Value::boolean(Keys.count(K) != 0);
    RestoredNodes += static_cast<double>(
        Restored->runtime().stats().CkptRestoredNodes.total());
    ++Restores;
    Restored.reset();
    return Ok;
  }

  void finalCheck(std::vector<std::string> &Problems) override {
    if (!Live->runtime().graph().verify().empty())
      Problems.push_back("lang_avl: DepGraph::verify() failed");
    if (Live->runtime().graph().numQuarantined() || Live->failed())
      Problems.push_back("lang_avl: interpreter failed or quarantined nodes");
    for (int K = 0; K < KeySpace; ++K)
      if (Live->call("Contains", {Value::integer(K)}) !=
          Value::boolean(Keys.count(K) != 0)) {
        Problems.push_back("lang_avl: final membership disagrees");
        break;
      }
  }

  void snap(Snap &S) override { S.add(Live->runtime().stats()); }
  void resetHighWater() override { Live->runtime().resetPoolHighWater(); }

  void resetExtras() override {
    PendingPeak = 0;
    DeltaBytes = Deltas = RestoredNodes = Restores = 0;
  }
  void extras(std::map<std::string, double> &E) override {
    E["policy.pending_peak"] = static_cast<double>(PendingPeak);
    E["ckpt.delta_bytes"] = Metrics::ratio(DeltaBytes, Deltas);
    E["ckpt.restored_nodes"] = Metrics::ratio(RestoredNodes, Restores);
  }

private:
  std::set<int> initialKeys() {
    Rng S(Cfg.Seed, 0x1a3);
    std::set<int> K;
    while (K.size() < static_cast<size_t>(NumKeys))
      K.insert(static_cast<int>(S.below(KeySpace)));
    return K;
  }

  long coneValue() const {
    long Sum = 0;
    for (int I = 0; I < 8; ++I)
      Sum += 2L * Globals[I];
    return Sum;
  }

  Rng Ops;
  MixDeck Mix;
  Zipf Popular;
  std::string Path, Source;
  std::vector<int> RankToKey;
  std::unique_ptr<Compiled> Prog;
  std::unique_ptr<Interp> Live, Oracle, Restored;
  std::set<int> Keys;
  std::vector<int> Present;
  std::array<int, 8> Globals{};

  Kind Op = Kind::Contains;
  int Key = 0, Poked = 0;
  uint64_t Checks = 0;
  Value Answer, RestoredAll, RestoredHit;

  size_t PendingPeak = 0;
  double DeltaBytes = 0, Deltas = 0, RestoredNodes = 0, Restores = 0;
};

} // namespace

std::unique_ptr<Workload> makeLangAvl(const RunConfig &C) {
  return std::make_unique<LangAvl>(C);
}

} // namespace perfbench
