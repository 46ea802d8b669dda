//===- CheckpointIO.h - Durable checkpoint container ------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk container for durable graph checkpoints (DESIGN.md §10):
/// a versioned, sectioned binary file with per-section CRC32, written
/// crash-atomically (temp file + fsync + rename + directory fsync), plus
/// the sidecar delta log appended between full snapshots.
///
/// Layout of a snapshot file:
///
///   offset 0   magic "ALFCKPT\0"                        (8 bytes)
///   offset 8   format version (u32, currently 3)
///   offset 12  section count (u32)
///   offset 16  snapshot id (u64, unique per written snapshot)
///   offset 24  CRC32 of the section table (u32) + u32 padding
///   offset 32  section table: N x { tag u32, pad u32, offset u64,
///                                   size u64, crc u32, pad u32 }
///   ...        section payloads, each 8-byte aligned
///
/// The delta log lives at `<snapshot path>.delta` and holds framed
/// records: { magic u32, seq u64, base snapshot id u64, payload size u64,
/// payload crc u32, pad u32 } + payload. Readers accept the longest
/// intact prefix whose base id matches the snapshot (WAL semantics: a
/// torn or corrupt tail is discarded, a stale base id — left over from a
/// crash between snapshot rename and log reset — discards the whole log).
///
/// Every durable I/O step passes a FaultInjector site first ("ckpt.io"
/// for snapshot writes, "ckpt.delta.io" for appends), so the crash
/// harness can kill the process deterministically between any two steps.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_SUPPORT_CHECKPOINTIO_H
#define ALPHONSE_SUPPORT_CHECKPOINTIO_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace alphonse {

//===----------------------------------------------------------------------===//
// Errors
//===----------------------------------------------------------------------===//

/// Why a checkpoint operation was refused. Every failure of the save or
/// restore path carries one of these codes so drivers can report a
/// structured diagnostic instead of a stack trace.
enum class CkptError : uint8_t {
  Io,           ///< open/read/write/fsync/rename failed (see message).
  BadMagic,     ///< The file is not a checkpoint at all.
  BadVersion,   ///< Written by an incompatible format version.
  Truncated,    ///< Shorter than its own header/section table claims.
  CrcMismatch,  ///< A section (or the table) failed its CRC32.
  Malformed,    ///< Structurally valid container, nonsensical contents.
  StaleDelta,   ///< Delta log and snapshot (or appender) disagree.
  VerifyFailed, ///< Restored graph failed DepGraph::verify().
  Busy,         ///< Live state not quiescent (pending work or open batch).
};

/// Stable lowercase name for \p E ("crc_mismatch", ...), for diagnostics
/// and scripts.
const char *ckptErrorName(CkptError E);

/// Thrown by every checkpoint save/restore failure path.
class CheckpointError : public std::runtime_error {
public:
  CheckpointError(CkptError Code, const std::string &Message)
      : std::runtime_error(std::string("checkpoint error [") +
                           ckptErrorName(Code) + "]: " + Message),
        Code(Code) {}

  CkptError code() const { return Code; }

private:
  CkptError Code;
};

//===----------------------------------------------------------------------===//
// CRC32 and byte streams
//===----------------------------------------------------------------------===//

/// CRC-32 (IEEE 802.3 polynomial, the zlib one). \p Seed chains calls.
uint32_t crc32(const void *Data, size_t Size, uint32_t Seed = 0);

/// Little-endian append-only byte sink for section payloads.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  /// Length-prefixed (u32) byte string.
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Buf.insert(Buf.end(), S.begin(), S.end());
  }

  const std::vector<uint8_t> &bytes() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }
  size_t size() const { return Buf.size(); }

private:
  std::vector<uint8_t> Buf;
};

/// Bounds-checked little-endian reader over a section payload. Every
/// overrun throws CheckpointError(Truncated) — a corrupt length field can
/// never read out of bounds or allocate unbounded memory.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : P(Data), End(Data + Size) {}

  uint8_t u8() {
    need(1);
    return *P++;
  }
  uint32_t u32() {
    need(4);
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(*P++) << (8 * I);
    return V;
  }
  uint64_t u64() {
    need(8);
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(*P++) << (8 * I);
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  std::string str() {
    uint32_t N = u32();
    need(N);
    std::string S(reinterpret_cast<const char *>(P), N);
    P += N;
    return S;
  }

  size_t remaining() const { return static_cast<size_t>(End - P); }
  bool atEnd() const { return P == End; }

private:
  void need(size_t N) {
    if (remaining() < N)
      throw CheckpointError(CkptError::Truncated,
                            "section payload ends mid-field");
  }

  const uint8_t *P;
  const uint8_t *End;
};

//===----------------------------------------------------------------------===//
// Snapshot container
//===----------------------------------------------------------------------===//

/// Builds a four-character section tag ('GRPH', 'GLBL', ...).
constexpr uint32_t sectionTag(char A, char B, char C, char D) {
  return static_cast<uint32_t>(static_cast<uint8_t>(A)) |
         static_cast<uint32_t>(static_cast<uint8_t>(B)) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(C)) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(D)) << 24;
}

/// Assembles sections and writes them crash-atomically: the target path
/// either keeps its previous contents or names the complete new snapshot;
/// a kill at any injected point never leaves a torn file under the final
/// name.
class CheckpointWriter {
public:
  CheckpointWriter();

  /// Unique id of the snapshot being assembled; delta records reference it.
  uint64_t snapshotId() const { return SnapshotId; }

  void addSection(uint32_t Tag, std::vector<uint8_t> Payload);
  size_t numSections() const { return Sections.size(); }

  /// Writes `<Path>.tmp`, fsyncs, renames onto \p Path, fsyncs the parent
  /// directory. \returns total bytes written. Throws CheckpointError(Io).
  uint64_t writeFile(const std::string &Path) const;

private:
  struct Section {
    uint32_t Tag;
    std::vector<uint8_t> Payload;
  };

  uint64_t SnapshotId;
  std::vector<Section> Sections;
};

/// Opens and fully validates a snapshot file: magic, version, header
/// bounds, table CRC, per-section CRC and bounds. Construction either
/// yields a reader whose every section is intact, or throws a coded
/// CheckpointError — a torn or tampered file can never be half-loaded.
class CheckpointReader {
public:
  explicit CheckpointReader(const std::string &Path);

  uint64_t snapshotId() const { return SnapshotId; }
  bool hasSection(uint32_t Tag) const;

  /// Reader over the payload of \p Tag; throws Malformed if absent.
  ByteReader section(uint32_t Tag) const;

private:
  struct Section {
    uint32_t Tag;
    size_t Offset;
    size_t Size;
  };

  uint64_t SnapshotId = 0;
  std::vector<uint8_t> Contents;
  std::vector<Section> Sections;
};

//===----------------------------------------------------------------------===//
// Delta log
//===----------------------------------------------------------------------===//

/// One intact delta record recovered from the log.
struct DeltaRecord {
  uint64_t Seq;
  std::vector<uint8_t> Payload;
};

/// The append side of one snapshot's delta log. It remembers where its
/// own last record ended, so a steady-state append only encodes, writes
/// and fsyncs:
///
///  - cold path, taken by the first append after start() and the first
///    after any failed append: the snapshot file must still carry the
///    base id, repairDeltaLog cuts back any torn tail, and the log must
///    then hold exactly the records this appender accounts for;
///  - warm path, every other append: one fstat, which must find the log
///    ending where this appender's last record did (else the cold path).
///
/// Each append is one header+payload write followed by fsync; a kill
/// mid-append leaves a torn tail that readDeltaLog discards. Either path
/// passes the "ckpt.delta.io" fault site four times: before opening the
/// log, before the header write, between header and payload, and before
/// the fsync.
class DeltaAppender {
public:
  /// Targets the log of the snapshot at \p SnapshotPath, whose id is
  /// \p BaseSnapshotId and whose log holds \p Records intact records the
  /// caller's state already includes (0 right after writing the
  /// snapshot; the replayed count after a restore).
  void start(std::string SnapshotPath, uint64_t BaseSnapshotId,
             uint64_t Records);

  bool started() const { return BaseSnapshotId != 0; }
  /// The snapshot whose log this appender extends ("" before start()).
  const std::string &snapshotPath() const { return SnapshotPath; }

  /// Appends one record. \returns bytes appended (header + payload).
  /// Throws CheckpointError: Io on an I/O failure; StaleDelta when
  /// start() was never called, the snapshot file no longer carries the
  /// base id, or the log lost or gained records behind this appender's
  /// back. After any throw the next append takes the cold path, which
  /// also accepts the failed append's record if it landed whole.
  uint64_t append(const std::vector<uint8_t> &Payload);

private:
  void recover();

  std::string SnapshotPath;
  std::string LogPath;
  uint64_t BaseSnapshotId = 0;
  uint64_t NextSeq = 1;
  /// Log size just past this appender's last record (valid when Warm).
  uint64_t End = 0;
  bool Warm = false;
  /// A failed append got as far as writing bytes: its record may be whole.
  bool MayHaveLanded = false;
};

/// Reads the longest intact prefix of `\p Path` whose records extend the
/// snapshot \p BaseSnapshotId, in sequence order starting at 1. A missing
/// log is an empty prefix. A torn/corrupt tail is discarded; a first
/// record with a foreign base id discards the whole log (it predates the
/// current snapshot). When \p Note is non-null it receives a one-line
/// description of anything discarded (empty when the log was clean).
std::vector<DeltaRecord> readDeltaLog(const std::string &Path,
                                      uint64_t BaseSnapshotId,
                                      std::string *Note = nullptr);

/// Like readDeltaLog, but also truncates any torn/foreign tail in place
/// so the next append lands on an intact record boundary (a record
/// appended after garbage would be lost to the reader's tail-discard).
/// \returns the number of surviving records — the next append's sequence
/// number is that + 1. Missing log: 0. \p IntactEnd, when non-null,
/// receives the repaired log's size.
uint64_t repairDeltaLog(const std::string &Path, uint64_t BaseSnapshotId,
                        std::string *Note = nullptr,
                        uint64_t *IntactEnd = nullptr);

/// Removes the delta log at \p Path if present (called right after a new
/// full snapshot lands, through a "ckpt.io" injection site). Throws
/// CheckpointError(Io) on a failure other than the file being absent.
void removeDeltaLog(const std::string &Path);

/// The conventional delta-log path for a snapshot at \p SnapshotPath.
inline std::string deltaLogPath(const std::string &SnapshotPath) {
  return SnapshotPath + ".delta";
}

} // namespace alphonse

#endif // ALPHONSE_SUPPORT_CHECKPOINTIO_H
