//===- SheetRecalc.cpp - sheet_recalc: edit, recalc, read a dashboard -----===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Closed loop, one client, a Spreadsheet on a Runtime with Workers =
// nproc - 1. The sheet is a 64 x 16 grid of row chains feeding a running
// total, with one global parameter every row reads:
//
//   (0,0)            global parameter P (literal)
//   (r,0), (0,c)     row and header literals
//   (r,1)            cell(r,0) + cell(0,0)
//   (r,2..C-2)       cell(r,c-1) + k                          (carry)
//                    cell(r,c-1) * 0 + k                      (mask)
//   (r,C-1)          cell(r,C-2) + cell(r-1,C-1)              (total)
//
// Every fourth row holds one mask, so a quarter of the row edits stop at a
// quiescence cutoff before reaching the totals. The layout is fixed; the
// literals, constants and the op stream come from the seed. E4's Pascal
// fabric (every cell reading two neighbours) is not used: the sheet's
// checkpoint capture and restore evaluate each cell with the unmemoized
// oracle, whose cost grows with the number of reference paths, which is
// exponential on that fabric. The grid is kept small so that a whole-sheet
// wave fits a core's own cache: at 128 x 32 (33 MB resident against 13 MB)
// the run-to-run spread of the op timings on a shared 4-vCPU host was about
// 1.5 times as wide, as the waves then depend on memory the host's other
// tenants also load.
//
// Each op applies one edit, runs recalc(), then reads a dashboard of eight
// cells. Op mix: 80% row-literal edits (small cone: one row and the totals
// below it), 12% formula rewrites (parse plus a
// structural change), 3% edits of P (wide cone: the whole sheet), 4%
// setAll batches of which one in four introduces a reference cycle and
// must roll back. Every read is checked against a from-scratch mirror of
// the sheet; every 64 ops the engine's exhaustive recalculation and
// oracleValue are checked against the mirror too. A formula rewrite leaves
// the replaced expression tree in the graph, so every 2500 ops the epoch
// ends: the sheet is restored from its checkpoint and checked, then
// rebuilt from a cold start, keeping every epoch the same size.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "spreadsheet/Spreadsheet.h"

#include <algorithm>
#include <string>

using namespace alphonse;
using alphonse::spreadsheet::Spreadsheet;

namespace perfbench {
namespace {

constexpr int Rows = 64;
constexpr int Cols = 16;
constexpr int Dashboard = 8;

enum class CellKind : uint8_t { Literal, First, Carry, Mask, Total };

struct MirrorCell {
  CellKind Kind;
  int V; ///< Literal value, or the constant k of carry/mask cells.
};

/// The benchmark's own model of the sheet: formulas as data, evaluated
/// from scratch (row-major order follows every reference).
class Mirror {
public:
  MirrorCell &at(int R, int C) { return Cells[R * Cols + C]; }

  static CellKind layout(int R, int C) {
    if (R == 0 || C == 0)
      return CellKind::Literal;
    if (C == 1)
      return CellKind::First;
    if (C == Cols - 1)
      return CellKind::Total;
    if (R % 4 == 3 && C == 2 + (R * 7) % (Cols - 3))
      return CellKind::Mask;
    return CellKind::Carry;
  }

  static std::string formula(int R, int C, const MirrorCell &M) {
    auto Ref = [](int Row, int Col) {
      return "cell(" + std::to_string(Row) + "," + std::to_string(Col) + ")";
    };
    switch (M.Kind) {
    case CellKind::Literal:
      return std::to_string(M.V);
    case CellKind::First:
      return Ref(R, 0) + " + " + Ref(0, 0);
    case CellKind::Carry:
      return Ref(R, C - 1) + " + " + std::to_string(M.V);
    case CellKind::Mask:
      return Ref(R, C - 1) + " * 0 + " + std::to_string(M.V);
    case CellKind::Total:
      return Ref(R, C - 1) + " + " + Ref(R - 1, C);
    }
    return "";
  }

  void evaluate() {
    for (int R = 0; R < Rows; ++R)
      for (int C = 0; C < Cols; ++C) {
        const MirrorCell &M = at(R, C);
        int V = 0;
        switch (M.Kind) {
        case CellKind::Literal:
        case CellKind::Mask:
          V = M.V;
          break;
        case CellKind::First:
          V = Values[R * Cols] + Values[0];
          break;
        case CellKind::Carry:
          V = Values[R * Cols + C - 1] + M.V;
          break;
        case CellKind::Total:
          V = Values[R * Cols + C - 1] + Values[(R - 1) * Cols + C];
          break;
        }
        Values[R * Cols + C] = V;
      }
  }

  int value(int R, int C) const { return Values[R * Cols + C]; }
  long long total() const {
    long long Sum = 0;
    for (int V : Values)
      Sum += V;
    return Sum;
  }

private:
  MirrorCell Cells[Rows * Cols];
  int Values[Rows * Cols];
};

enum class Kind : uint8_t { RowLiteral, Rewrite, Param, Batch, CycleBatch };

class SheetRecalc : public Workload {
public:
  explicit SheetRecalc(const RunConfig &C)
      : Workload(C), Ops(C.Seed, 0x5e1), Path(C.WorkDir + "/sheet.ckpt") {}

  void setup(Tracer *T) override {
    // Inputs: the fixed layout with seeded literals and constants.
    Rng S(Cfg.Seed, 0x5e2);
    for (int R = 0; R < Rows; ++R)
      for (int C = 0; C < Cols; ++C) {
        CellKind K = Mirror::layout(R, C);
        Model.at(R, C) = {K, K == CellKind::Literal
                                 ? static_cast<int>(S.below(100))
                                 : static_cast<int>(S.below(4))};
      }
    Model.evaluate();
    RT = makeRuntime();
    Sheet = std::make_unique<Spreadsheet>(*RT, Rows, Cols);
    install(*Sheet);
    Span Sp(T, "Spreadsheet::recalc", "spreadsheet", &RT->stats());
    Sheet->recalc();
    for (int I = 0; I < Dashboard; ++I)
      Sheet->value(Rows - 1 - I, Cols - 1);
  }

  void teardown() override {
    Sheet.reset();
    RT.reset();
  }

  void prepare() override {
    uint64_t Roll = Mix.next(Ops);
    Edits.clear();
    Op = Roll < 80   ? Kind::RowLiteral
         : Roll < 92 ? Kind::Rewrite
         : Roll < 95 ? Kind::Param
         : Roll < 98 ? Kind::Batch
                     : Kind::CycleBatch;
    switch (Op) {
    case Kind::RowLiteral:
      Edits.push_back(rowLiteral());
      break;
    case Kind::Rewrite:
      Edits.push_back(rewrite());
      break;
    case Kind::Param:
      Edits.push_back({0, 0, static_cast<int>(Ops.below(100))});
      break;
    case Kind::Batch:
    case Kind::CycleBatch:
      for (int I = 0; I < 3; ++I)
        Edits.push_back(rowLiteral());
      Edits.push_back(rewrite());
      break;
    }
    if (Op == Kind::CycleBatch) {
      // (R,C) := cell(R,C+1) + 1, while (R,C+1) reads (R,C): a cycle.
      int R = 1 + static_cast<int>(Ops.below(Rows - 1));
      int C = 2 + static_cast<int>(Ops.below(Cols - 4));
      CycleCell = {R, C};
    }
    FocusRow = Edits.back().R ? Edits.back().R : Rows / 2;
    for (const Edit &E : Edits)
      Hash.add(static_cast<uint64_t>(Op) << 48 |
               static_cast<uint64_t>(E.R) << 32 |
               static_cast<uint64_t>(E.C) << 16 | static_cast<uint32_t>(E.V));
  }

  void apply(Tracer *T) override {
    const Statistics *St = T ? &RT->stats() : nullptr;
    if (Op == Kind::Batch || Op == Kind::CycleBatch) {
      std::vector<Spreadsheet::CellEdit> Batch;
      for (const Edit &E : Edits)
        Batch.push_back({E.R, E.C, formulaAfter(E)});
      if (Op == Kind::CycleBatch)
        Batch.push_back({CycleCell.first, CycleCell.second,
                         "cell(" + std::to_string(CycleCell.first) + "," +
                             std::to_string(CycleCell.second + 1) + ") + 1"});
      Clock::time_point T0 = Clock::now();
      {
        Span Sp(T, "Spreadsheet::setAll", "spreadsheet", St);
        Committed = Sheet->setAll(Batch);
      }
      double Us =
          std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
      (Committed ? TxnCommitUs : TxnRollbackUs).push_back(Us);
    } else {
      const Edit &E = Edits.front();
      if (Op == Kind::Rewrite) {
        Span Sp(T, "Spreadsheet::setFormula", "spreadsheet", St);
        Committed = Sheet->setFormula(E.R, E.C, formulaAfter(E));
      } else {
        Span Sp(T, "Spreadsheet::setLiteral", "spreadsheet", St);
        Sheet->setLiteral(E.R, E.C, E.V);
        Committed = true;
      }
      PendingPeak = std::max(PendingPeak, RT->graph().numPending());
      Span Sp(T, "Spreadsheet::recalc", "spreadsheet", St);
      Sheet->recalc();
    }
    readDashboard(*Sheet, T);
  }

  bool check() override {
    bool Ok = Committed == (Op != Kind::CycleBatch) && !Sheet->cycleDetected();
    if (Committed) {
      for (const Edit &E : Edits)
        Model.at(E.R, E.C).V = E.V;
      Model.evaluate();
    }
    std::pair<int, int> Cells[Dashboard];
    dashboardCells(Cells);
    for (int I = 0; I < Dashboard; ++I) {
      int Expected = Model.value(Cells[I].first, Cells[I].second);
      if (corruptNow())
        Expected += 1;
      Ok &= Read[I] == Expected;
    }
    if (++SinceDeepCheck == 64) {
      SinceDeepCheck = 0;
      int C = 1 + static_cast<int>(Ops.below(Cols - 1));
      Ok &= Sheet->recomputeAllExhaustive() == Model.total() &&
            Sheet->oracleValue(1, C) == Model.value(1, C);
    }
    return Ok && RT->graph().numQuarantined() == 0;
  }

  size_t durableEvery() const override { return 128; }
  size_t epochOps() const override { return 2500; }

  void durable(Tracer *T) override {
    Span Sp(T, "Spreadsheet::saveCheckpoint", "ckpt", &RT->stats());
    Sheet->saveCheckpoint(Path);
  }

  void restore(Tracer *T) override {
    Span Sp(T, "restore", "ckpt");
    RestoredRT = makeRuntime();
    Restored = std::make_unique<Spreadsheet>(*RestoredRT, Rows, Cols);
    Restored->restoreCheckpoint(Path);
    readDashboard(*Restored, nullptr);
  }

  bool checkRestore() override {
    // durable() ran right before restore(), so the mirror is current.
    std::pair<int, int> Cells[Dashboard];
    dashboardCells(Cells);
    bool Ok = RestoredRT->graph().verify().empty();
    for (int I = 0; I < Dashboard; ++I)
      Ok &= Read[I] == Model.value(Cells[I].first, Cells[I].second);
    Restored.reset();
    RestoredRT.reset();
    return Ok;
  }

  void finalCheck(std::vector<std::string> &Problems) override {
    if (!RT->graph().verify().empty())
      Problems.push_back("sheet_recalc: DepGraph::verify() failed");
    if (Sheet->recomputeAllExhaustive() != Model.total())
      Problems.push_back("sheet_recalc: exhaustive total disagrees");
    long long Sum = 0;
    for (int R = 0; R < Rows; ++R)
      for (int C = 0; C < Cols; ++C)
        Sum += Sheet->value(R, C);
    if (Sum != Model.total())
      Problems.push_back("sheet_recalc: incremental total disagrees");
    if (RT->graph().numQuarantined())
      Problems.push_back("sheet_recalc: quarantined nodes");
  }

  void snap(Snap &S) override { S.add(RT->stats()); }
  void resetHighWater() override { RT->resetPoolHighWater(); }

  void resetExtras() override {
    PendingPeak = 0;
    TxnCommitUs.clear();
    TxnRollbackUs.clear();
  }
  void extras(std::map<std::string, double> &E) override {
    E["policy.pending_peak"] = static_cast<double>(PendingPeak);
    E["policy.txn_commit_us"] = median(TxnCommitUs);
    E["policy.txn_rollback_us"] = median(TxnRollbackUs);
  }

private:
  struct Edit {
    int R, C, V; ///< New literal, or the new constant of a rewrite.
  };

  std::unique_ptr<Runtime> makeRuntime() {
    DepGraph::Config G;
    G.Workers = hostCpus() > 1 ? hostCpus() - 1 : 0;
    return std::make_unique<Runtime>(G);
  }

  void install(Spreadsheet &S) {
    for (int R = 0; R < Rows; ++R)
      for (int C = 0; C < Cols; ++C) {
        const MirrorCell &M = Model.at(R, C);
        if (M.Kind == CellKind::Literal)
          S.setLiteral(R, C, M.V);
        else
          S.setFormula(R, C, Mirror::formula(R, C, M));
      }
  }

  Edit rowLiteral() {
    return {1 + static_cast<int>(Ops.below(Rows - 1)), 0,
            static_cast<int>(Ops.below(100))};
  }

  Edit rewrite() {
    int R = 1 + static_cast<int>(Ops.below(Rows - 1));
    int C = 2 + static_cast<int>(Ops.below(Cols - 3));
    return {R, C, static_cast<int>(Ops.below(4))};
  }

  std::string formulaAfter(const Edit &E) {
    MirrorCell M = Model.at(E.R, E.C);
    M.V = E.V;
    return Mirror::formula(E.R, E.C, M);
  }

  void dashboardCells(std::pair<int, int> (&Cells)[Dashboard]) const {
    for (int I = 0; I < 4; ++I)
      Cells[I] = {Rows - 1 - I, Cols - 1};
    Cells[4] = {FocusRow, Cols - 1};
    Cells[5] = {FocusRow, Cols - 2};
    Cells[6] = {FocusRow, 1};
    Cells[7] = {Rows / 2, Cols - 1};
  }

  void readDashboard(Spreadsheet &S, Tracer *T) {
    std::pair<int, int> Cells[Dashboard];
    dashboardCells(Cells);
    for (int I = 0; I < Dashboard; ++I) {
      Span Sp(T, "Spreadsheet::value", "spreadsheet");
      Read[I] = S.value(Cells[I].first, Cells[I].second);
    }
  }

  Rng Ops;
  MixDeck Mix;
  std::string Path;
  Mirror Model;
  std::unique_ptr<Runtime> RT;
  std::unique_ptr<Spreadsheet> Sheet;

  Kind Op = Kind::RowLiteral;
  std::vector<Edit> Edits;
  std::pair<int, int> CycleCell;
  int FocusRow = 1;
  bool Committed = false;
  int Read[Dashboard] = {};
  int SinceDeepCheck = 0;

  size_t PendingPeak = 0;
  std::vector<double> TxnCommitUs, TxnRollbackUs;
  std::unique_ptr<Runtime> RestoredRT;
  std::unique_ptr<Spreadsheet> Restored;
};

} // namespace

std::unique_ptr<Workload> makeSheetRecalc(const RunConfig &C) {
  return std::make_unique<SheetRecalc>(C);
}

} // namespace perfbench
