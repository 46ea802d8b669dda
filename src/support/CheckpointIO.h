//===- CheckpointIO.h - Durable checkpoint file ----------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk form of durable checkpoints (DESIGN.md §10): one file, a
/// header followed by CRC-framed records. The first record is the base,
/// the program state written from nothing; every later record is a delta
/// appended in place.
///
///   offset 0   magic "ALFCKPT\0"                        (8 bytes)
///   offset 8   format version (u32, currently 5)
///   offset 12  file id (u64, random per written file)
///   offset 20  CRC32 of bytes 0-19 (u32)
///   offset 24  records, each { payload size u32, CRC32 of the size field
///              and the payload u32 } + payload; the base record's
///              payload starts with the u32 tag of the embedding that
///              wrote it
///
/// A save writes the header and the base to a temporary file and renames
/// it over the old one, deltas and all; an append writes one record at
/// the end. A reader refuses a damaged header or base with a coded
/// CheckpointError and keeps the longest intact prefix of the records
/// after the base (a torn or corrupt tail is discarded).
///
/// Every durable I/O step passes a FaultInjector site first ("ckpt.io"
/// for saves, "ckpt.delta.io" for appends), so the crash harness can kill
/// the process deterministically between any two steps.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_SUPPORT_CHECKPOINTIO_H
#define ALPHONSE_SUPPORT_CHECKPOINTIO_H

#include <cstddef>
#include <cstdint>
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
  Truncated,    ///< Ends inside its header or base record.
  CrcMismatch,  ///< The header or the base record failed its CRC32.
  Malformed,    ///< Intact records, nonsensical contents.
  StaleDelta,   ///< Another save or writer changed the appender's file.
  VerifyFailed, ///< A restored value failed its recompute check.
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

/// Little-endian append-only byte sink for record payloads.
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

/// Bounds-checked little-endian reader over a record payload. Every
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
                            "record payload ends mid-field");
  }

  const uint8_t *P;
  const uint8_t *End;
};

//===----------------------------------------------------------------------===//
// The checkpoint file
//===----------------------------------------------------------------------===//

/// Builds a four-character tag ('SHET', ...) naming the embedding whose
/// base record a checkpoint file holds.
constexpr uint32_t sectionTag(char A, char B, char C, char D) {
  return static_cast<uint32_t>(static_cast<uint8_t>(A)) |
         static_cast<uint32_t>(static_cast<uint8_t>(B)) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(C)) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(D)) << 24;
}

/// Writes a new checkpoint file, the header and the base record,
/// crash-atomically: the target path either keeps its previous contents
/// or names the complete new file; a kill at any injected point never
/// leaves a torn file under the final name.
class CheckpointWriter {
public:
  /// Sets the base record: \p Payload, written under \p Tag. A file has
  /// one base record, so this is called once.
  void addSection(uint32_t Tag, std::vector<uint8_t> Payload);

  /// Writes `<Path>.tmp`, fsyncs, renames onto \p Path (which drops the
  /// old file and its deltas), fsyncs the parent directory. \returns
  /// total bytes written. Throws CheckpointError(Io).
  uint64_t writeFile(const std::string &Path);

private:
  friend class DeltaAppender;
  std::vector<uint8_t> Base; ///< The tag, then the payload.
  /// The file writeFile wrote last: where the first delta goes.
  std::string Path;
  uint64_t FileId = 0;
  uint64_t Bytes = 0;
};

/// Reads a checkpoint file through one framing loop. Construction either
/// yields an intact header and base record plus the longest intact prefix
/// of the delta records, or throws a coded CheckpointError: a file whose
/// header or base is torn or tampered with is never half-loaded.
class CheckpointReader {
public:
  explicit CheckpointReader(const std::string &Path);

  /// Reader over the base record's payload; throws Malformed unless it
  /// was written under \p Tag.
  ByteReader section(uint32_t Tag) const;

  /// The intact delta records after the base, in append order.
  size_t numDeltas() const { return Records.size() - 1; }
  ByteReader delta(size_t I) const;

  /// One line on the discarded tail ("" when every record was intact).
  const std::string &note() const { return Note; }

private:
  friend class DeltaAppender;
  struct Record {
    size_t Offset;
    size_t Size;
  };

  std::string Path;
  uint64_t FileId = 0;
  std::vector<uint8_t> Contents;
  std::vector<Record> Records; ///< The base record, then the deltas.
  std::string Note;
};

/// The append side of one checkpoint file. It remembers the file's id and
/// where its own last record ended, so an append is one open, a 16-byte
/// pread of the header (version, id, CRC), one fstat, two writes and an
/// fsync.
///
/// A header that no longer carries the id means another save replaced
/// the file. A file longer than the appender's end is cut back to it only
/// when the extra bytes are the appender's own failed append or the torn
/// tail its restore saw; any other size means another writer appended or
/// cut. Both are StaleDelta. So a failed record never survives the next
/// append, which writes a record covering it instead.
///
/// Each append passes the "ckpt.delta.io" fault site four times: before
/// opening the file, before the frame write, between frame and payload,
/// and before the fsync.
class DeltaAppender {
public:
  DeltaAppender() = default;
  /// Extends the file \p W wrote last.
  explicit DeltaAppender(const CheckpointWriter &W);
  /// Extends the file \p R read, after the records it kept.
  explicit DeltaAppender(const CheckpointReader &R);

  bool started() const { return !Path.empty(); }
  /// The file this appender extends ("" before a save or restore).
  const std::string &path() const { return Path; }

  /// Appends one record. \returns bytes appended (frame + payload).
  /// Throws CheckpointError: Io on an I/O failure; StaleDelta when there
  /// is no file to extend or another save or writer changed it.
  uint64_t append(const std::vector<uint8_t> &Payload);

private:
  std::string Path;
  uint64_t FileId = 0;
  /// Just past this appender's last durable record.
  uint64_t End = 0;
  /// The file size its restore saw (past End when the tail was torn).
  uint64_t TornEnd = 0;
  /// Just past a failed append's record, which may have landed in part.
  uint64_t FailedEnd = 0;
};

} // namespace alphonse

#endif // ALPHONSE_SUPPORT_CHECKPOINTIO_H
