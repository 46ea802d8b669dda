//===- CheckpointIO.cpp - Durable checkpoint container --------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/CheckpointIO.h"

#include "support/FaultInjector.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>

namespace alphonse {

namespace {

constexpr char kMagic[8] = {'A', 'L', 'F', 'C', 'K', 'P', 'T', '\0'};
constexpr uint32_t kFormatVersion = 3;
constexpr size_t kHeaderBytes = 32;   // magic + version + count + id + crc+pad
constexpr size_t kTableEntryBytes = 32;
constexpr uint32_t kMaxSections = 1024;
constexpr uint32_t kDeltaMagic = sectionTag('A', 'L', 'F', 'D');
constexpr size_t kDeltaHeaderBytes = 40;

[[noreturn]] void ioError(const std::string &What, const std::string &Path) {
  throw CheckpointError(CkptError::Io,
                        What + " '" + Path + "': " + std::strerror(errno));
}

/// A close-on-destruction fd.
struct Fd {
  int Raw = -1;
  ~Fd() {
    if (Raw >= 0)
      ::close(Raw);
  }
  explicit operator bool() const { return Raw >= 0; }
};

void writeAll(int Fd, const uint8_t *Data, size_t Size,
              const std::string &Path) {
  while (Size > 0) {
    ssize_t N = ::write(Fd, Data, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      ioError("cannot write", Path);
    }
    Data += N;
    Size -= static_cast<size_t>(N);
  }
}

void fsyncFd(int Fd, const std::string &Path) {
  if (::fsync(Fd) != 0)
    ioError("cannot fsync", Path);
}

/// fsyncs the directory containing \p Path so the rename itself is
/// durable.
void fsyncParentDir(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? "." : Path.substr(0, Slash);
  if (Dir.empty())
    Dir = "/";
  Fd D{::open(Dir.c_str(), O_RDONLY | O_DIRECTORY)};
  if (!D)
    ioError("cannot open directory", Dir);
  fsyncFd(D.Raw, Dir);
}

/// Reads up to \p Limit bytes from the start of \p Path (the whole file
/// by default); \p Missing reports an absent file.
std::vector<uint8_t> readFilePrefix(const std::string &Path, size_t Limit,
                                    bool &Missing) {
  Missing = false;
  Fd F{::open(Path.c_str(), O_RDONLY)};
  if (!F) {
    if (errno == ENOENT) {
      Missing = true;
      return {};
    }
    ioError("cannot open", Path);
  }
  std::vector<uint8_t> Buf;
  uint8_t Chunk[1 << 16];
  while (Buf.size() < Limit) {
    ssize_t N =
        ::read(F.Raw, Chunk, std::min(sizeof(Chunk), Limit - Buf.size()));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      ioError("cannot read", Path);
    }
    if (N == 0)
      break;
    Buf.insert(Buf.end(), Chunk, Chunk + N);
  }
  return Buf;
}

std::vector<uint8_t> readWholeFile(const std::string &Path, bool &Missing) {
  return readFilePrefix(Path, SIZE_MAX, Missing);
}

uint64_t freshSnapshotId() {
  // Uniqueness is all that matters (a stale delta log must not match a
  // new snapshot by accident); no cryptographic strength needed.
  static std::mt19937_64 Rng{std::random_device{}()};
  uint64_t Id = Rng();
  return Id ? Id : 1;
}

void putU32(std::vector<uint8_t> &Buf, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void putU64(std::vector<uint8_t> &Buf, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

uint32_t getU32(const uint8_t *P) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(P[I]) << (8 * I);
  return V;
}

uint64_t getU64(const uint8_t *P) {
  uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(P[I]) << (8 * I);
  return V;
}

/// Checks the fixed snapshot header at the front of \p Bytes (size,
/// magic, format version) and \returns its snapshot id.
uint64_t headerSnapshotId(const std::vector<uint8_t> &Bytes,
                          const std::string &Path) {
  if (Bytes.size() < kHeaderBytes)
    throw CheckpointError(CkptError::Truncated,
                          "'" + Path + "' is shorter than a header");
  if (std::memcmp(Bytes.data(), kMagic, 8) != 0)
    throw CheckpointError(CkptError::BadMagic,
                          "'" + Path + "' is not a checkpoint file");
  uint32_t Version = getU32(Bytes.data() + 8);
  if (Version != kFormatVersion)
    throw CheckpointError(CkptError::BadVersion,
                          "'" + Path + "' has format version " +
                              std::to_string(Version) + ", expected " +
                              std::to_string(kFormatVersion));
  return getU64(Bytes.data() + 16);
}

} // namespace

const char *ckptErrorName(CkptError E) {
  switch (E) {
  case CkptError::Io:
    return "io";
  case CkptError::BadMagic:
    return "bad_magic";
  case CkptError::BadVersion:
    return "bad_version";
  case CkptError::Truncated:
    return "truncated";
  case CkptError::CrcMismatch:
    return "crc_mismatch";
  case CkptError::Malformed:
    return "malformed";
  case CkptError::StaleDelta:
    return "stale_delta";
  case CkptError::VerifyFailed:
    return "verify_failed";
  case CkptError::Busy:
    return "busy";
  }
  return "unknown";
}

uint32_t crc32(const void *Data, size_t Size, uint32_t Seed) {
  static uint32_t Table[256];
  static bool Ready = [] {
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      Table[I] = C;
    }
    return true;
  }();
  (void)Ready;
  uint32_t C = Seed ^ 0xFFFFFFFFu;
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I < Size; ++I)
    C = Table[(C ^ P[I]) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

//===----------------------------------------------------------------------===//
// CheckpointWriter
//===----------------------------------------------------------------------===//

CheckpointWriter::CheckpointWriter() : SnapshotId(freshSnapshotId()) {}

void CheckpointWriter::addSection(uint32_t Tag,
                                  std::vector<uint8_t> Payload) {
  Sections.push_back({Tag, std::move(Payload)});
}

uint64_t CheckpointWriter::writeFile(const std::string &Path) const {
  // Assemble the complete image in memory first: header, table, aligned
  // payloads. Nothing touches the disk until the image is final.
  std::vector<uint8_t> Image(kMagic, kMagic + 8);
  putU32(Image, kFormatVersion);
  putU32(Image, static_cast<uint32_t>(Sections.size()));
  putU64(Image, SnapshotId);

  std::vector<uint8_t> Table;
  size_t Offset = kHeaderBytes + Sections.size() * kTableEntryBytes;
  for (const Section &S : Sections) {
    Offset = (Offset + 7) & ~size_t{7};
    putU32(Table, S.Tag);
    putU32(Table, 0);
    putU64(Table, Offset);
    putU64(Table, S.Payload.size());
    putU32(Table, crc32(S.Payload.data(), S.Payload.size()));
    putU32(Table, 0);
    Offset += S.Payload.size();
  }
  putU32(Image, crc32(Table.data(), Table.size()));
  putU32(Image, 0);
  Image.insert(Image.end(), Table.begin(), Table.end());
  for (const Section &S : Sections) {
    Image.resize((Image.size() + 7) & ~size_t{7}, 0);
    Image.insert(Image.end(), S.Payload.begin(), S.Payload.end());
  }

  // Durable write protocol. Each step is preceded by an injection site so
  // the crash harness can kill between any two steps; correctness does
  // not depend on reaching any particular step — the rename is the only
  // visible transition.
  std::string Tmp = Path + ".tmp";
  faultInjectionPoint("ckpt.io"); // 1: before creating the temp file
  Fd F{::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644)};
  if (!F)
    ioError("cannot create", Tmp);
  // Two half-writes so a kill can leave a genuinely torn temp file.
  size_t Half = Image.size() / 2;
  faultInjectionPoint("ckpt.io"); // 2: before the first half
  writeAll(F.Raw, Image.data(), Half, Tmp);
  faultInjectionPoint("ckpt.io"); // 3: between the halves (torn temp)
  writeAll(F.Raw, Image.data() + Half, Image.size() - Half, Tmp);
  faultInjectionPoint("ckpt.io"); // 4: before fsync
  fsyncFd(F.Raw, Tmp);
  faultInjectionPoint("ckpt.io"); // 5: before the atomic rename
  if (::rename(Tmp.c_str(), Path.c_str()) != 0)
    ioError("cannot rename into place", Path);
  faultInjectionPoint("ckpt.io"); // 6: before the directory fsync
  fsyncParentDir(Path);
  return Image.size();
}

//===----------------------------------------------------------------------===//
// CheckpointReader
//===----------------------------------------------------------------------===//

CheckpointReader::CheckpointReader(const std::string &Path) {
  bool Missing = false;
  Contents = readWholeFile(Path, Missing);
  if (Missing)
    ioError("cannot open", Path);

  SnapshotId = headerSnapshotId(Contents, Path);
  uint32_t NumSections = getU32(Contents.data() + 12);
  if (NumSections > kMaxSections)
    throw CheckpointError(CkptError::Malformed,
                          "implausible section count " +
                              std::to_string(NumSections));
  uint32_t TableCrc = getU32(Contents.data() + 24);

  size_t TableBytes = size_t{NumSections} * kTableEntryBytes;
  if (Contents.size() < kHeaderBytes + TableBytes)
    throw CheckpointError(CkptError::Truncated,
                          "'" + Path + "' ends inside its section table");
  const uint8_t *Table = Contents.data() + kHeaderBytes;
  if (crc32(Table, TableBytes) != TableCrc)
    throw CheckpointError(CkptError::CrcMismatch,
                          "section table CRC mismatch in '" + Path + "'");

  for (uint32_t I = 0; I < NumSections; ++I) {
    const uint8_t *E = Table + size_t{I} * kTableEntryBytes;
    Section S;
    S.Tag = getU32(E);
    uint64_t Off = getU64(E + 8);
    uint64_t Size = getU64(E + 16);
    uint32_t Crc = getU32(E + 24);
    if (Off > Contents.size() || Size > Contents.size() - Off)
      throw CheckpointError(CkptError::Truncated,
                            "section payload extends past end of '" + Path +
                                "'");
    if (crc32(Contents.data() + Off, Size) != Crc)
      throw CheckpointError(CkptError::CrcMismatch,
                            "section payload CRC mismatch in '" + Path +
                                "'");
    S.Offset = Off;
    S.Size = Size;
    Sections.push_back(S);
  }
}

bool CheckpointReader::hasSection(uint32_t Tag) const {
  for (const Section &S : Sections)
    if (S.Tag == Tag)
      return true;
  return false;
}

ByteReader CheckpointReader::section(uint32_t Tag) const {
  for (const Section &S : Sections)
    if (S.Tag == Tag)
      return ByteReader(Contents.data() + S.Offset, S.Size);
  throw CheckpointError(CkptError::Malformed,
                        "missing required checkpoint section");
}

//===----------------------------------------------------------------------===//
// Delta log
//===----------------------------------------------------------------------===//

void DeltaAppender::start(std::string SnapshotPath, uint64_t BaseSnapshotId,
                          uint64_t Records) {
  LogPath = deltaLogPath(SnapshotPath);
  this->SnapshotPath = std::move(SnapshotPath);
  this->BaseSnapshotId = BaseSnapshotId;
  NextSeq = Records + 1;
  End = 0;
  Warm = false;
  MayHaveLanded = false;
}

/// The cold path: re-validate the base, repair the log, and re-derive the
/// warm state from what survived.
void DeltaAppender::recover() {
  {
    // The header alone carries the id; the sections were validated when
    // the snapshot was written or restored.
    bool Missing = false;
    std::vector<uint8_t> Head =
        readFilePrefix(SnapshotPath, kHeaderBytes, Missing);
    if (Missing)
      ioError("cannot open", SnapshotPath);
    if (headerSnapshotId(Head, SnapshotPath) != BaseSnapshotId)
      throw CheckpointError(CkptError::StaleDelta,
                            "snapshot '" + SnapshotPath +
                                "' was replaced since this log's base was "
                                "written");
  }
  uint64_t IntactEnd = 0;
  uint64_t Have = repairDeltaLog(LogPath, BaseSnapshotId, nullptr, &IntactEnd);
  uint64_t Want = NextSeq - 1;
  if (Have != Want && !(MayHaveLanded && Have == Want + 1))
    throw CheckpointError(CkptError::StaleDelta,
                          "delta log '" + LogPath + "' holds " +
                              std::to_string(Have) +
                              " intact record(s); this appender accounts "
                              "for " +
                              std::to_string(Want));
  NextSeq = Have + 1;
  End = IntactEnd;
  MayHaveLanded = false;
}

uint64_t DeltaAppender::append(const std::vector<uint8_t> &Payload) {
  if (!started())
    throw CheckpointError(CkptError::StaleDelta,
                          "delta append without a base snapshot");
  bool WasWarm = Warm;
  Warm = false; // Re-armed only once this record is durable.

  faultInjectionPoint("ckpt.delta.io"); // 1: before opening the log
  Fd F{::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644)};
  if (!F)
    ioError("cannot open delta log", LogPath);
  struct stat St;
  if (::fstat(F.Raw, &St) != 0)
    ioError("cannot stat delta log", LogPath);
  if (!WasWarm || static_cast<uint64_t>(St.st_size) != End)
    recover(); // O_APPEND: the writes below land at the repaired end.

  std::vector<uint8_t> Header;
  putU32(Header, kDeltaMagic);
  putU32(Header, 0);
  putU64(Header, NextSeq);
  putU64(Header, BaseSnapshotId);
  putU64(Header, Payload.size());
  putU32(Header, crc32(Payload.data(), Payload.size()));
  putU32(Header, 0);

  faultInjectionPoint("ckpt.delta.io"); // 2: before the header write
  MayHaveLanded = true;
  writeAll(F.Raw, Header.data(), Header.size(), LogPath);
  faultInjectionPoint("ckpt.delta.io"); // 3: header on disk, payload not
  writeAll(F.Raw, Payload.data(), Payload.size(), LogPath);
  faultInjectionPoint("ckpt.delta.io"); // 4: before fsync
  fsyncFd(F.Raw, LogPath);
  MayHaveLanded = false;
  ++NextSeq;
  End += Header.size() + Payload.size();
  Warm = true;
  return Header.size() + Payload.size();
}

namespace {

/// The shared scan behind readDeltaLog and repairDeltaLog. \p IntactEnd
/// receives the byte offset just past the last intact record (0 when the
/// whole log is foreign or unreadable).
std::vector<DeltaRecord> parseDeltaLog(const std::vector<uint8_t> &Buf,
                                       const std::string &Path,
                                       uint64_t BaseSnapshotId,
                                       std::string *Note, size_t &IntactEnd) {
  IntactEnd = 0;
  std::vector<DeltaRecord> Records;
  size_t Pos = 0;
  uint64_t ExpectSeq = 1;
  auto discardTail = [&](const char *Why) {
    if (Note)
      *Note = std::string("delta log '") + Path + "': " + Why +
              " at byte " + std::to_string(Pos) + "; keeping " +
              std::to_string(Records.size()) + " intact record(s)";
  };

  while (Pos < Buf.size()) {
    if (Buf.size() - Pos < kDeltaHeaderBytes) {
      discardTail("torn record header");
      break;
    }
    const uint8_t *H = Buf.data() + Pos;
    if (getU32(H) != kDeltaMagic) {
      discardTail("bad record magic");
      break;
    }
    uint64_t Seq = getU64(H + 8);
    uint64_t BaseId = getU64(H + 16);
    uint64_t Size = getU64(H + 24);
    uint32_t Crc = getU32(H + 32);
    if (Size > Buf.size() - Pos - kDeltaHeaderBytes) {
      discardTail("torn record payload");
      break;
    }
    const uint8_t *Payload = H + kDeltaHeaderBytes;
    if (crc32(Payload, Size) != Crc) {
      discardTail("record payload CRC mismatch");
      break;
    }
    if (BaseId != BaseSnapshotId) {
      // A stale log predating the current snapshot (crash between the
      // snapshot rename and the log reset). None of it applies.
      if (Records.empty()) {
        if (Note)
          *Note = std::string("delta log '") + Path +
                  "' belongs to a previous snapshot; ignoring it entirely";
        return {};
      }
      discardTail("record from a foreign snapshot");
      break;
    }
    if (Seq != ExpectSeq) {
      discardTail("sequence discontinuity");
      break;
    }
    Records.push_back(
        {Seq, std::vector<uint8_t>(Payload, Payload + Size)});
    ++ExpectSeq;
    Pos += kDeltaHeaderBytes + Size;
    IntactEnd = Pos;
  }
  return Records;
}

} // namespace

std::vector<DeltaRecord> readDeltaLog(const std::string &Path,
                                      uint64_t BaseSnapshotId,
                                      std::string *Note) {
  if (Note)
    Note->clear();
  bool Missing = false;
  std::vector<uint8_t> Buf = readWholeFile(Path, Missing);
  if (Missing)
    return {};
  size_t IntactEnd = 0;
  return parseDeltaLog(Buf, Path, BaseSnapshotId, Note, IntactEnd);
}

uint64_t repairDeltaLog(const std::string &Path, uint64_t BaseSnapshotId,
                        std::string *Note, uint64_t *IntactEnd) {
  if (Note)
    Note->clear();
  if (IntactEnd)
    *IntactEnd = 0;
  bool Missing = false;
  std::vector<uint8_t> Buf = readWholeFile(Path, Missing);
  if (Missing)
    return 0;
  size_t End = 0;
  std::vector<DeltaRecord> Records =
      parseDeltaLog(Buf, Path, BaseSnapshotId, Note, End);
  if (End < Buf.size()) {
    // Appending after a torn record would hide the new record behind
    // garbage (the reader discards everything from the first bad byte),
    // so cut the log back to the last intact boundary first.
    Fd F{::open(Path.c_str(), O_WRONLY)};
    if (!F)
      ioError("cannot open delta log", Path);
    if (::ftruncate(F.Raw, static_cast<off_t>(End)) != 0)
      ioError("cannot truncate delta log", Path);
    fsyncFd(F.Raw, Path);
  }
  if (IntactEnd)
    *IntactEnd = End;
  return Records.size();
}

void removeDeltaLog(const std::string &Path) {
  faultInjectionPoint("ckpt.io"); // 7: before resetting the delta log
  if (::unlink(Path.c_str()) != 0 && errno != ENOENT)
    ioError("cannot remove delta log", Path);
  fsyncParentDir(Path);
}

} // namespace alphonse
