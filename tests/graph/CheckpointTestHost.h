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
/// It implements the full save/restore protocol the way any embedding
/// client would — capture the graph with GraphCheckpoint, serialize its
/// own typed state alongside it, and on restore recreate the cells and
/// instances, bind them to their captured ids, and let GraphRestorer
/// re-apply the engine state behind verify().
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_TESTS_GRAPH_CHECKPOINTTESTHOST_H
#define ALPHONSE_TESTS_GRAPH_CHECKPOINTTESTHOST_H

#include "core/Alphonse.h"
#include "graph/Checkpoint.h"
#include "support/CheckpointIO.h"

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace alphonse::ckpttest {

constexpr uint32_t TagGraph = sectionTag('G', 'R', 'P', 'H');
constexpr uint32_t TagCells = sectionTag('C', 'E', 'L', 'L');
constexpr uint32_t TagMant = sectionTag('M', 'A', 'N', 'T');

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
    for (size_t I = 0; I < NumCells; ++I)
      Cells.push_back(std::make_unique<Cell<int>>(
          RT, 0, "c" + std::to_string(I)));
  }

  Runtime RT;
  std::vector<std::unique_ptr<Cell<int>>> Cells;
  Maintained<int(int)> Sum;

  /// Demands every prefix sum, building the full dependency graph.
  void touchAll() {
    for (size_t K = 0; K < Cells.size(); ++K)
      Sum(static_cast<int>(K));
  }

  /// Full snapshot: GRPH (engine state) + CELL / MANT (typed state).
  void save(const std::string &Path) {
    RT.pump();
    GraphSnapshot GS = GraphCheckpoint::capture(RT.graph());
    CheckpointWriter W;
    {
      ByteWriter B;
      GS.encode(B);
      W.addSection(TagGraph, B.take());
    }
    {
      ByteWriter B;
      B.u32(static_cast<uint32_t>(Cells.size()));
      for (const auto &C : Cells) {
        DepNode *N = C->node();
        B.u8(N ? 1 : 0);
        if (N)
          B.u32(N->id().bits());
        B.i64(C->peek());
      }
      W.addSection(TagCells, B.take());
    }
    {
      ByteWriter B;
      B.u32(static_cast<uint32_t>(Sum.numInstances()));
      Sum.forEachInstance([&B](const std::tuple<int> &Key,
                               const std::optional<int> &Cached,
                               const DepNode &N) {
        B.u32(N.id().bits());
        B.i64(std::get<0>(Key));
        B.u8(Cached ? 1 : 0);
        if (Cached)
          B.i64(*Cached);
      });
      W.addSection(TagMant, B.take());
    }
    W.writeFile(Path);
    Appender.start(Path, W.snapshotId(), 0);
    removeDeltaLog(deltaLogPath(Path));
  }

  /// Appends the current cell values to the log of the snapshot this host
  /// last saved or restored (\p Path).
  void appendDelta(const std::string &Path) {
    RT.pump();
    if (Appender.snapshotPath() != Path)
      throw CheckpointError(CkptError::StaleDelta,
                            "'" + Path + "' is not this host's snapshot");
    ByteWriter B;
    B.u32(static_cast<uint32_t>(Cells.size()));
    for (const auto &C : Cells)
      B.i64(C->peek());
    Appender.append(B.take());
  }

  /// Rebuilds this (freshly constructed, same-extent) host from \p Path
  /// plus any surviving deltas. Throws CheckpointError on anything that
  /// does not describe a loadable state; the host must then be discarded.
  void restore(const std::string &Path) {
    CheckpointReader R(Path);

    GraphSnapshot GS;
    {
      ByteReader B = R.section(TagGraph);
      GS = GraphSnapshot::decode(B);
      if (!B.atEnd())
        throw CheckpointError(CkptError::Malformed,
                              "trailing bytes in GRPH section");
    }
    struct StagedCell {
      bool HasNode = false;
      uint32_t NodeBits = 0;
      int64_t Live = 0;
    };
    std::vector<StagedCell> SC;
    {
      ByteReader B = R.section(TagCells);
      uint32_t Count = B.u32();
      if (Count != Cells.size())
        throw CheckpointError(CkptError::Malformed, "cell count mismatch");
      for (uint32_t I = 0; I < Count; ++I) {
        StagedCell S;
        uint8_t Has = B.u8();
        if (Has > 1)
          throw CheckpointError(CkptError::Malformed, "bad node flag");
        S.HasNode = Has != 0;
        if (S.HasNode)
          S.NodeBits = B.u32();
        S.Live = B.i64();
        SC.push_back(S);
      }
      if (!B.atEnd())
        throw CheckpointError(CkptError::Malformed,
                              "trailing bytes in CELL section");
    }
    struct StagedInstance {
      uint32_t NodeBits = 0;
      int64_t Key = 0;
      std::optional<int64_t> Cached;
    };
    std::vector<StagedInstance> SI;
    {
      ByteReader B = R.section(TagMant);
      uint32_t Count = B.u32();
      for (uint32_t I = 0; I < Count; ++I) {
        StagedInstance S;
        S.NodeBits = B.u32();
        S.Key = B.i64();
        uint8_t Has = B.u8();
        if (Has > 1)
          throw CheckpointError(CkptError::Malformed, "bad cache flag");
        if (Has)
          S.Cached = B.i64();
        SI.push_back(S);
      }
      if (!B.atEnd())
        throw CheckpointError(CkptError::Malformed,
                              "trailing bytes in MANT section");
    }

    std::vector<DeltaRecord> Deltas =
        readDeltaLog(deltaLogPath(Path), R.snapshotId(), &RestoreNote);
    // Stage delta payloads before mutating anything.
    std::vector<std::vector<int64_t>> DeltaValues;
    for (const DeltaRecord &Rec : Deltas) {
      ByteReader B(Rec.Payload.data(), Rec.Payload.size());
      uint32_t Count = B.u32();
      if (Count != Cells.size())
        throw CheckpointError(CkptError::Malformed,
                              "delta cell count mismatch");
      std::vector<int64_t> V;
      for (uint32_t I = 0; I < Count; ++I)
        V.push_back(B.i64());
      if (!B.atEnd())
        throw CheckpointError(CkptError::Malformed,
                              "trailing bytes in delta record");
      DeltaValues.push_back(std::move(V));
    }

    GraphRestorer Restorer(std::move(GS));
    for (size_t I = 0; I < Cells.size(); ++I) {
      // Value first, node second: StorageNode's constructor snapshots
      // the live value, so this order restores Snapshot == Live (true at
      // any quiescent capture of an unquarantined cell).
      Cells[I]->set(static_cast<int>(SC[I].Live));
      if (SC[I].HasNode)
        Restorer.bind(SC[I].NodeBits, Cells[I]->ensureTracked());
    }
    for (const StagedInstance &S : SI) {
      std::optional<int> Cached;
      if (S.Cached)
        Cached = static_cast<int>(*S.Cached);
      DepNode &N = Sum.restoreInstance(
          std::tuple<int>(static_cast<int>(S.Key)), Cached);
      Restorer.bind(S.NodeBits, N);
    }
    Restorer.finish(RT.graph());

    for (const std::vector<int64_t> &V : DeltaValues)
      for (size_t I = 0; I < Cells.size(); ++I)
        Cells[I]->set(static_cast<int>(V[I]));
    RT.pump();
    std::vector<std::string> Problems = RT.graph().verify();
    if (!Problems.empty())
      throw CheckpointError(CkptError::VerifyFailed,
                            "post-delta verify failed: " + Problems.front());
    Appender.start(Path, R.snapshotId(), Deltas.size());
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
};

} // namespace alphonse::ckpttest

#endif // ALPHONSE_TESTS_GRAPH_CHECKPOINTTESTHOST_H
