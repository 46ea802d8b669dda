//===- Spreadsheet.cpp - Incremental spreadsheet --------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "spreadsheet/Spreadsheet.h"

#include "support/CheckpointIO.h"

namespace alphonse::spreadsheet {

using attrgram::Env;
using attrgram::Exp;
using attrgram::ExprTree;
using attrgram::IntExp;

/// Algorithm 10's CellExp: a production with two integer terminal fields
/// selecting another cell whose value() it returns. (Named, not in an
/// anonymous namespace, so the Spreadsheet friend declaration applies.)
class CellRefExp final : public Exp {
public:
  CellRefExp(Runtime &RT, Spreadsheet &Sheet, int Row, int Col)
      : Exp(RT), Row(RT, Row, "cellref.x"), Col(RT, Col, "cellref.y"),
        Sheet(&Sheet) {}

  Cell<int> Row;
  Cell<int> Col;

protected:
  // CellVal: cells[o.x, o.y].value().
  int computeValue(ExprTree &) override {
    return Sheet->cellValue(Row.get(), Col.get());
  }

  Env computeEnv(ExprTree &, Exp *) override {
    assert(false && "cell references have no nonterminal children");
    return Env();
  }

  int oracleValue(const Env &) const override {
    return Sheet->oracleValue(Row.peek(), Col.peek());
  }

private:
  Spreadsheet *Sheet;
};

Spreadsheet::Spreadsheet(Runtime &RT, int Rows, int Cols)
    : RT(RT), NumRows(Rows), NumCols(Cols), Tree(RT),
      CellVal(
          RT, [this](int R, int C) { return computeCellValue(R, C); },
          EvalStrategy::Demand, "Sheet.value"),
      InFlight(static_cast<size_t>(Rows) * Cols, 0) {
  assert(Rows > 0 && Cols > 0 && "spreadsheet must have a positive extent");
  Grid.reserve(InFlight.size());
  for (size_t I = 0; I < InFlight.size(); ++I)
    Grid.push_back(
        std::make_unique<Cell<Exp *>>(RT, nullptr, "sheet.func"));
  Sources.resize(InFlight.size());
}

Spreadsheet::~Spreadsheet() = default;

size_t Spreadsheet::index(int Row, int Col) const {
  assert(inRange(Row, Col) && "cell index out of range");
  return static_cast<size_t>(Row) * NumCols + Col;
}

Exp *Spreadsheet::makeCellRef(int Row, int Col) {
  if (!inRange(Row, Col))
    return nullptr;
  return Tree.adopt(std::make_unique<CellRefExp>(RT, *this, Row, Col));
}

void Spreadsheet::recordSource(size_t I, std::string Src) {
  // The graph journal restores the tree on rollback; the source text must
  // travel with it or a rolled-back setAll would checkpoint stale text.
  if (RT.inBatch())
    RT.graph().logUndo([this, I, Old = Sources[I]]() { Sources[I] = Old; });
  Sources[I] = std::move(Src);
}

bool Spreadsheet::setFormula(int Row, int Col, const std::string &Source) {
  Exp *Parsed = attrgram::parseFormula(
      Tree, Source, Diags, [this](int R, int C) { return makeCellRef(R, C); });
  if (!Parsed)
    return false;
  size_t I = index(Row, Col);
  Grid[I]->set(Parsed);
  recordSource(I, Source);
  return true;
}

void Spreadsheet::setLiteral(int Row, int Col, int Value) {
  size_t I = index(Row, Col);
  Cell<Exp *> &Slot = *Grid[I];
  recordSource(I, std::to_string(Value));
  if (Exp *Cur = Slot.peek())
    if (IntExp *Lit = Cur->asIntExp()) {
      Lit->Lit.set(Value); // In-place edit: only the literal cell changes.
      return;
    }
  Slot.set(Tree.makeInt(Value));
}

void Spreadsheet::clearCell(int Row, int Col) {
  size_t I = index(Row, Col);
  Grid[I]->set(nullptr);
  recordSource(I, "");
}

bool Spreadsheet::setAll(const std::vector<CellEdit> &Edits) {
  // CycleFlag is not a Cell, so the transaction cannot restore it; keep
  // the pre-batch value aside and use the flag to detect cycles the batch
  // itself introduces.
  bool PriorCycle = CycleFlag;
  Transaction Txn(RT);
  CycleFlag = false;
  auto Abort = [&]() {
    if (!Txn.finished())
      Txn.rollback();
    CycleFlag = PriorCycle;
    return false;
  };
  for (const CellEdit &E : Edits) {
    if (!inRange(E.Row, E.Col)) {
      Diags.error(SourceLocation(), "setAll: cell (" + std::to_string(E.Row) +
                                        ", " + std::to_string(E.Col) +
                                        ") is out of range");
      return Abort();
    }
    if (E.Formula.empty()) {
      clearCell(E.Row, E.Col);
      continue;
    }
    if (!setFormula(E.Row, E.Col, E.Formula))
      return Abort();
  }
  // Demand every edited cell inside the batch: faulting formulas and
  // reference cycles surface now, while rollback can still revert them.
  try {
    for (const CellEdit &E : Edits)
      value(E.Row, E.Col);
  } catch (...) {
    return Abort();
  }
  if (CycleFlag)
    return Abort();
  if (!Txn.commit())
    return Abort();
  CycleFlag = PriorCycle;
  return true;
}

int Spreadsheet::value(int Row, int Col) { return CellVal(Row, Col); }

bool Spreadsheet::valueIsStale(int Row, int Col) const {
  return CellVal.isStale(Row, Col);
}

int Spreadsheet::computeCellValue(int Row, int Col) {
  // Reference cycle: evaluate to 0 and raise the flag (documented
  // divergence from the paper, which leaves cycles undefined). The signal
  // comes from the dependency graph itself: a nonzero re-entrant depth on
  // this cell's own instance node means its value is being demanded while
  // it computes. No local in-flight bookkeeping, so a formula that throws
  // (e.g. a quarantined reference) unwinds without leaking state.
  if (DepNode *Self = CellVal.instanceNode(Row, Col))
    if (Self->reentrantDepth() > 0) {
      CycleFlag = true;
      return 0;
    }
  Exp *Formula = Grid[index(Row, Col)]->get();
  return Formula ? Tree.value(Formula) : 0;
}

int Spreadsheet::oracleValue(int Row, int Col) const {
  size_t I = index(Row, Col);
  if (PassActive && PassDone[I])
    return PassMemo[I];
  if (InFlight[I])
    return 0; // Cycle: mirror the incremental semantics.
  const Exp *Formula = Grid[I]->peek();
  int Result = 0;
  if (Formula) {
    InFlight[I] = 1;
    Result = Tree.oracleValue(Formula);
    InFlight[I] = 0;
  }
  if (PassActive) {
    PassMemo[I] = Result;
    PassDone[I] = 1;
  }
  return Result;
}

Spreadsheet::OraclePass::OraclePass(const Spreadsheet &S) : S(S) {
  assert(!S.PassActive && "oracle passes do not nest");
  S.PassActive = true;
  S.PassMemo.assign(S.Grid.size(), 0);
  S.PassDone.assign(S.Grid.size(), 0);
}

Spreadsheet::OraclePass::~OraclePass() { S.PassActive = false; }

//===----------------------------------------------------------------------===//
// Durable checkpoints (DESIGN.md Section 10): the structural tier
//===----------------------------------------------------------------------===//

namespace {
constexpr uint32_t TagSheet = sectionTag('S', 'H', 'E', 'T');
} // namespace

void Spreadsheet::saveCheckpoint(const std::string &Path) {
  // Capture requires true quiescence whatever the default budget: a
  // checkpoint of a degraded (half-propagated) state would persist stale
  // values as durable truth.
  RT.pumpUnbounded();
  CheckpointWriter W;
  ByteWriter B;
  B.u32(static_cast<uint32_t>(NumRows));
  B.u32(static_cast<uint32_t>(NumCols));
  B.u8(CycleFlag ? 1 : 0);
  OraclePass Pass(*this);
  for (int R = 0; R < NumRows; ++R)
    for (int C = 0; C < NumCols; ++C) {
      B.str(Sources[index(R, C)]);
      // The oracle value: untracked, so capture perturbs no graph state.
      B.i64(oracleValue(R, C));
    }
  W.addSection(TagSheet, B.take());
  uint64_t Bytes = W.writeFile(Path);
  Statistics &S = RT.stats();
  ++S.CkptSnapshots;
  S.CkptSections += W.numSections();
  S.CkptBytesWritten += Bytes;
}

void Spreadsheet::restoreCheckpoint(const std::string &Path) {
  CheckpointReader R(Path);
  ByteReader B = R.section(TagSheet);
  uint32_t Rows = B.u32(), Cols = B.u32();
  if (Rows != static_cast<uint32_t>(NumRows) ||
      Cols != static_cast<uint32_t>(NumCols))
    throw CheckpointError(CkptError::Malformed,
                          "sheet checkpoint is " + std::to_string(Rows) +
                              "x" + std::to_string(Cols) +
                              ", this sheet is " + std::to_string(NumRows) +
                              "x" + std::to_string(NumCols));
  uint8_t Flag = B.u8();
  if (Flag > 1)
    throw CheckpointError(CkptError::Malformed,
                          "cycle flag out of range in sheet checkpoint");

  // Stage everything (and finish bounds-checking) before touching cells.
  struct StagedCell {
    std::string Source;
    long long Expected;
  };
  std::vector<StagedCell> Staged;
  Staged.reserve(Grid.size());
  for (size_t I = 0; I < Grid.size(); ++I) {
    StagedCell SC;
    SC.Source = B.str();
    SC.Expected = B.i64();
    Staged.push_back(std::move(SC));
  }
  if (!B.atEnd())
    throw CheckpointError(CkptError::Malformed,
                          "trailing bytes in sheet checkpoint");

  // Re-derive: the formula trees are pointer-keyed productions, so the
  // sheet re-parses its way back instead of binding saved graph nodes.
  for (int Row = 0; Row < NumRows; ++Row)
    for (int Col = 0; Col < NumCols; ++Col) {
      const StagedCell &SC = Staged[index(Row, Col)];
      if (SC.Source.empty()) {
        clearCell(Row, Col);
        continue;
      }
      if (!setFormula(Row, Col, SC.Source))
        throw CheckpointError(CkptError::Malformed,
                              "formula for cell (" + std::to_string(Row) +
                                  ", " + std::to_string(Col) +
                                  ") no longer parses");
    }

  // Recompute-validate: every restored cell must evaluate to its captured
  // value, or the checkpoint does not describe this program. The same
  // pass order as saveCheckpoint, so cycles resolve the same way.
  OraclePass Pass(*this);
  for (int Row = 0; Row < NumRows; ++Row)
    for (int Col = 0; Col < NumCols; ++Col) {
      long long Got = oracleValue(Row, Col);
      long long Want = Staged[index(Row, Col)].Expected;
      if (Got != Want)
        throw CheckpointError(
            CkptError::VerifyFailed,
            "cell (" + std::to_string(Row) + ", " + std::to_string(Col) +
                ") recomputed to " + std::to_string(Got) + ", checkpoint " +
                "says " + std::to_string(Want));
    }
  CycleFlag = Flag != 0;
  ++RT.stats().CkptRestores;
}

long long Spreadsheet::recomputeAllExhaustive() const {
  OraclePass Pass(*this);
  long long Sum = 0;
  for (int R = 0; R < NumRows; ++R)
    for (int C = 0; C < NumCols; ++C)
      Sum += oracleValue(R, C);
  return Sum;
}

} // namespace alphonse::spreadsheet
