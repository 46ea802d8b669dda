//===- Spreadsheet.h - Incremental spreadsheet ------------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 7.2 of the paper: the attribute-grammar expression trees of
/// Section 7.1 extended into a spreadsheet. Each cell holds an expression
/// tree and a maintained value method; a CellExp production with two
/// integer terminal fields references another cell's value — "the use of
/// top-level data references and ... how one Alphonse program can be used
/// to construct another" (Algorithm 10).
///
/// Formulas are written in the FormulaParser language, e.g.
///   "cell(0,0) + cell(0,1) * 2"
///   "let x = cell(1,1) in x * x ni".
///
/// Divergence from the paper (documented): reference cycles, which the
/// paper leaves undefined (they would not terminate), are detected via the
/// dependency graph's re-entrant-depth signal (DepNode::reentrantDepth)
/// and evaluate to 0 with a cycle flag raised.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_SPREADSHEET_SPREADSHEET_H
#define ALPHONSE_SPREADSHEET_SPREADSHEET_H

#include "attrgram/ExprTree.h"
#include "attrgram/FormulaParser.h"
#include "core/Alphonse.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <vector>

namespace alphonse::spreadsheet {

/// A Rows x Cols grid of formula cells with incremental recalculation.
class Spreadsheet {
public:
  Spreadsheet(Runtime &RT, int Rows, int Cols);
  ~Spreadsheet();

  int rows() const { return NumRows; }
  int cols() const { return NumCols; }

  /// Parses \p Source and installs it as the formula of (\p Row, \p Col).
  /// \returns false (and records diagnostics) on a parse error; the cell
  /// keeps its previous formula in that case.
  bool setFormula(int Row, int Col, const std::string &Source);

  /// Sets the cell to a literal value. If the current formula is already a
  /// single literal, edits it in place (the cheapest possible change).
  void setLiteral(int Row, int Col, int Value);

  /// Removes the formula; empty cells evaluate to 0.
  void clearCell(int Row, int Col);

  /// One edit of an atomic batch (see setAll). An empty Formula clears
  /// the cell.
  struct CellEdit {
    int Row;
    int Col;
    std::string Formula;
  };

  /// Applies every edit as one transactional batch: either all edits
  /// commit together, or — on a parse error, an out-of-range target, a
  /// reference cycle introduced by the batch, or a fault during
  /// recalculation — none do, and every cell value is exactly as before
  /// the call. \returns true iff the batch committed. cycleDetected() is
  /// left unchanged by a rolled-back batch.
  bool setAll(const std::vector<CellEdit> &Edits);

  /// The maintained value of a cell (Algorithm 10's Cell.value()).
  int value(int Row, int Col);

  /// Recalculates pending edits under the runtime's default budget.
  void recalc() { RT.pump(); }

  /// Budgeted recalculation (DESIGN.md Section 11): propagates pending
  /// edits under \p B. If the budget runs out mid-wave, the returned
  /// outcome is degraded, unrepaired cells keep serving their
  /// last-quiescent values (flagged by valueIsStale), and a later recalc
  /// — or any unbudgeted pump — finishes the parked work.
  WaveOutcome recalc(const WaveBudget &B) { return RT.pump(B); }

  /// True while (\p Row, \p Col)'s value is stale: a budgeted recalc was
  /// cancelled before re-establishing it, so value() serves the
  /// last-quiescent result.
  bool valueIsStale(int Row, int Col) const;

  /// True once any evaluation encountered a reference cycle; cleared by
  /// clearCycleFlag(). Cells on a cycle evaluate to 0.
  bool cycleDetected() const { return CycleFlag; }
  void clearCycleFlag() { CycleFlag = false; }

  /// Parse diagnostics accumulated by setFormula failures.
  const DiagnosticEngine &diagnostics() const { return Diags; }

  /// Writes the sheet's durable state — dimensions, per-cell formula
  /// source, per-cell value, cycle flag — to \p Path crash-atomically.
  /// The formula trees and the graph are derived state, so the
  /// checkpoint is structural: restore re-parses every formula and
  /// re-derives the trees (DESIGN.md Section 10).
  void saveCheckpoint(const std::string &Path);

  /// Rebuilds the sheet from \p Path: dimensions must match, every
  /// formula must re-parse, and every recomputed cell value must equal
  /// its captured value (a recompute-validate restore). Throws
  /// CheckpointError on any mismatch.
  void restoreCheckpoint(const std::string &Path);

  /// Exhaustive baseline for experiment E4: a conventional full
  /// recalculation evaluating every cell once (cross-cell references are
  /// memoized for the duration of the pass, as any non-incremental
  /// spreadsheet engine would), with no incremental machinery. \returns
  /// the sum of all cell values (a checksum the benchmark compares
  /// against the incremental path).
  long long recomputeAllExhaustive() const;

  /// Exhaustive evaluation of one cell (untracked). Outside an oracle
  /// pass (recomputeAllExhaustive, checkpoint save and restore), nothing
  /// is memoized: cost is the full dependency cone of the cell.
  int oracleValue(int Row, int Col) const;

  Runtime &runtime() { return RT; }

private:
  friend class CellRefExp;

  size_t index(int Row, int Col) const;
  bool inRange(int Row, int Col) const {
    return Row >= 0 && Row < NumRows && Col >= 0 && Col < NumCols;
  }

  /// Incremental per-cell evaluation (the maintained method's body).
  int computeCellValue(int Row, int Col);

  /// Remembers the formula source installed at cell \p I (journaled
  /// inside a batch so a rolled-back setAll reverts it with the tree).
  void recordSource(size_t I, std::string Src);

  /// Incremental cell read used by CellRefExp (goes through the maintained
  /// method so the reference depends on one cell-value instance).
  int cellValue(int Row, int Col) { return CellVal(Row, Col); }

  attrgram::Exp *makeCellRef(int Row, int Col);

  /// Memoizes oracleValue() for its lifetime, so one sweep over the sheet
  /// evaluates every cell once. Every sweep that must agree with another
  /// (checkpoint save and its restore-validate) runs inside one.
  class OraclePass {
  public:
    explicit OraclePass(const Spreadsheet &S);
    ~OraclePass();
    OraclePass(const OraclePass &) = delete;
    OraclePass &operator=(const OraclePass &) = delete;

  private:
    const Spreadsheet &S;
  };

  Runtime &RT;
  int NumRows;
  int NumCols;
  DiagnosticEngine Diags;
  attrgram::ExprTree Tree;
  Maintained<int(int, int)> CellVal;
  /// Grid[i] holds the root of cell i's formula tree (nullptr = empty).
  std::vector<std::unique_ptr<Cell<attrgram::Exp *>>> Grid;
  /// The source text behind Grid[i] ("" = empty cell); what checkpoints
  /// persist, since the trees themselves are pointer-keyed.
  std::vector<std::string> Sources;
  /// Cycle detection for the *oracle* path only: cells currently being
  /// evaluated exhaustively. The incremental path reads the re-entrant
  /// depth of the cell's dependency-graph node instead (the graph's
  /// generic in-flight-cycle signal).
  mutable std::vector<char> InFlight;
  /// Per-pass memo of the active OraclePass.
  mutable std::vector<int> PassMemo;
  mutable std::vector<char> PassDone;
  mutable bool PassActive = false;
  bool CycleFlag = false;
};

} // namespace alphonse::spreadsheet

#endif // ALPHONSE_SPREADSHEET_SPREADSHEET_H
