//===- CheckpointTestHost.h - Shared checkpoint test fixture ----*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small typed-layer program used by the checkpoint, crash-recovery, and
/// replay tests: N integer Cells plus one Maintained prefix-sum procedure.
/// It saves and restores the way any embedding client would: the cell
/// values are the program state, so the base record and every delta record
/// carry the same payload (the values of all cells). The dependency graph
/// and the cached sums are derived state; a restored host starts with an
/// empty graph and rebuilds it on first demand.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_TESTS_GRAPH_CHECKPOINTTESTHOST_H
#define ALPHONSE_TESTS_GRAPH_CHECKPOINTTESTHOST_H

#include "core/Alphonse.h"
#include "support/CheckpointIO.h"

#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace alphonse::ckpttest {

constexpr uint32_t TagCells = sectionTag('C', 'E', 'L', 'L');

/// N cells and Sum(k) = k + sum of cells 0..k.
class CheckpointHost {
public:
  explicit CheckpointHost(size_t NumCells,
                          EvalStrategy Strategy = EvalStrategy::Demand,
                          DepGraph::Config Cfg = DepGraph::Config())
      : RT(Cfg), Sum(
                     RT,
                     [this](int K) {
                       int S = K;
                       for (int I = 0; I <= K &&
                                       I < static_cast<int>(Cells.size());
                            ++I)
                         S += Cells[static_cast<size_t>(I)]->get();
                       return S;
                     },
                     Strategy, "sum") {
    Cells.reserve(NumCells);
    for (size_t I = 0; I < NumCells; ++I) {
      std::string Name = "c";
      Name += std::to_string(I);
      Cells.push_back(std::make_unique<Cell<int>>(RT, 0, std::move(Name)));
    }
  }

  Runtime RT;
  std::vector<std::unique_ptr<Cell<int>>> Cells;
  Maintained<int(int)> Sum;

  /// Demands every prefix sum, building the full dependency graph.
  void touchAll() {
    for (size_t K = 0; K < Cells.size(); ++K)
      Sum(static_cast<int>(K));
  }

  /// A new checkpoint file whose CELL base record holds the cell values.
  void save(const std::string &Path) {
    RT.pump();
    CheckpointWriter W;
    W.addSection(TagCells, values());
    W.writeFile(Path);
    Appender = DeltaAppender(W);
  }

  /// Appends the current cell values to the file this host last saved or
  /// restored (\p Path).
  void appendDelta(const std::string &Path) {
    RT.pump();
    if (Appender.path() != Path)
      throw CheckpointError(CkptError::StaleDelta,
                            "'" + Path + "' is not this host's checkpoint");
    Appender.append(values());
  }

  /// Sets this (freshly constructed, same-extent) host's cells from
  /// \p Path's base record and intact deltas. Throws CheckpointError on
  /// anything that does not describe a loadable state, before changing
  /// anything; the host must then be discarded.
  void restore(const std::string &Path) {
    CheckpointReader R(Path);
    RestoreNote = R.note();
    // The base record's payload, then each delta's: the last one wins.
    std::vector<int64_t> Values = decode(R.section(TagCells));
    for (size_t I = 0; I < R.numDeltas(); ++I)
      Values = decode(R.delta(I));
    for (size_t I = 0; I < Cells.size(); ++I)
      Cells[I]->set(static_cast<int>(Values[I]));
    Appender = DeltaAppender(R);
  }

  /// Demands every prefix sum and lists it with the cell values; two
  /// hosts in equivalent states produce equal fingerprints (restore =
  /// "every future computation agrees").
  std::string fingerprint() {
    std::ostringstream OS;
    for (const auto &C : Cells)
      OS << C->peek() << ',';
    OS << '|';
    for (size_t K = 0; K < Cells.size(); ++K)
      OS << Sum(static_cast<int>(K)) << ',';
    return OS.str();
  }

  std::string RestoreNote;
  DeltaAppender Appender;

private:
  /// The payload of a snapshot and of a delta record alike.
  std::vector<uint8_t> values() const {
    ByteWriter B;
    B.u32(static_cast<uint32_t>(Cells.size()));
    for (const auto &C : Cells)
      B.i64(C->peek());
    return B.take();
  }

  std::vector<int64_t> decode(ByteReader B) const {
    if (B.u32() != Cells.size())
      throw CheckpointError(CkptError::Malformed, "cell count mismatch");
    std::vector<int64_t> V;
    for (size_t I = 0; I < Cells.size(); ++I)
      V.push_back(B.i64());
    if (!B.atEnd())
      throw CheckpointError(CkptError::Malformed, "trailing bytes");
    return V;
  }
};

} // namespace alphonse::ckpttest

#endif // ALPHONSE_TESTS_GRAPH_CHECKPOINTTESTHOST_H
