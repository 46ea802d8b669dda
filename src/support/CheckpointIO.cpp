//===- CheckpointIO.cpp - Durable checkpoint file -------------------------===//
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

#include <cassert>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <random>

namespace alphonse {

namespace {

constexpr char kMagic[8] = {'A', 'L', 'F', 'C', 'K', 'P', 'T', '\0'};
constexpr uint32_t kFormatVersion = 5;
constexpr size_t kHeaderBytes = 24; // magic + version + file id + CRC
constexpr size_t kIdOffset = 8;     // an append re-reads version, id, CRC
constexpr size_t kFrameBytes = 8;   // record payload size + CRC

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
  std::string Dir = Slash == std::string::npos ? "."
                    : Slash == 0               ? "/"
                                               : Path.substr(0, Slash);
  Fd D{::open(Dir.c_str(), O_RDONLY | O_DIRECTORY)};
  if (!D)
    ioError("cannot open directory", Dir);
  fsyncFd(D.Raw, Dir);
}

std::vector<uint8_t> readWholeFile(const std::string &Path) {
  Fd F{::open(Path.c_str(), O_RDONLY)};
  if (!F)
    ioError("cannot open", Path);
  std::vector<uint8_t> Buf;
  uint8_t Chunk[1 << 16];
  for (;;) {
    ssize_t N = ::read(F.Raw, Chunk, sizeof(Chunk));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      ioError("cannot read", Path);
    }
    if (N == 0)
      return Buf;
    Buf.insert(Buf.end(), Chunk, Chunk + N);
  }
}

uint64_t freshFileId() {
  // Uniqueness is all that matters (an appender must not mistake a file
  // another save wrote for its own); no cryptographic strength needed.
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

/// The header of the file \p FileId.
std::vector<uint8_t> header(uint64_t FileId) {
  std::vector<uint8_t> H(kMagic, kMagic + 8);
  putU32(H, kFormatVersion);
  putU64(H, FileId);
  putU32(H, crc32(H.data(), H.size()));
  return H;
}

/// The frame in front of a record: the payload size and a CRC32 over that
/// size field and the payload, so a zero-filled tail is not a record.
std::vector<uint8_t> frame(const std::vector<uint8_t> &Payload) {
  if (Payload.size() > UINT32_MAX)
    throw CheckpointError(CkptError::Malformed,
                          "a record of " + std::to_string(Payload.size()) +
                              " bytes exceeds the 4 GiB limit");
  std::vector<uint8_t> F;
  putU32(F, static_cast<uint32_t>(Payload.size()));
  putU32(F, crc32(Payload.data(), Payload.size(), crc32(F.data(), 4)));
  return F;
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

void CheckpointWriter::addSection(uint32_t Tag,
                                  std::vector<uint8_t> Payload) {
  assert(Base.empty() && "a checkpoint file holds one base record");
  putU32(Base, Tag);
  Base.insert(Base.end(), Payload.begin(), Payload.end());
}

uint64_t CheckpointWriter::writeFile(const std::string &Path) {
  // Assemble the complete image in memory first. Nothing touches the
  // disk until the image is final.
  uint64_t Id = freshFileId();
  std::vector<uint8_t> Image = header(Id);
  std::vector<uint8_t> Frame = frame(Base);
  Image.insert(Image.end(), Frame.begin(), Frame.end());
  Image.insert(Image.end(), Base.begin(), Base.end());

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
  this->Path = Path;
  FileId = Id;
  Bytes = Image.size();
  return Bytes;
}

//===----------------------------------------------------------------------===//
// CheckpointReader
//===----------------------------------------------------------------------===//

CheckpointReader::CheckpointReader(const std::string &Path)
    : Path(Path), Contents(readWholeFile(Path)) {
  const uint8_t *Head = Contents.data();
  if (Contents.size() < kHeaderBytes)
    throw CheckpointError(CkptError::Truncated,
                          "'" + Path + "' is shorter than a header");
  if (std::memcmp(Head, kMagic, 8) != 0)
    throw CheckpointError(CkptError::BadMagic,
                          "'" + Path + "' is not a checkpoint file");
  uint32_t Version = getU32(Head + 8);
  if (Version != kFormatVersion)
    throw CheckpointError(CkptError::BadVersion,
                          "'" + Path + "' has format version " +
                              std::to_string(Version) + ", expected " +
                              std::to_string(kFormatVersion));
  if (crc32(Head, kHeaderBytes - 4) != getU32(Head + kHeaderBytes - 4))
    throw CheckpointError(CkptError::CrcMismatch,
                          "header CRC mismatch in '" + Path + "'");
  FileId = getU64(Head + 12);

  // The one framing loop. Damage in the base record refuses the file;
  // damage after it ends the log there.
  size_t Pos = kHeaderBytes;
  while (Pos < Contents.size() || Records.empty()) {
    const uint8_t *F = Contents.data() + Pos;
    size_t Left = Contents.size() - Pos;
    uint32_t Size = Left < kFrameBytes ? 0 : getU32(F);
    CkptError Code = CkptError::Truncated;
    const char *Damage = nullptr;
    if (Left < kFrameBytes || Size > Left - kFrameBytes) {
      Damage = "torn record";
    } else if (crc32(F + kFrameBytes, Size, crc32(F, 4)) != getU32(F + 4)) {
      Code = CkptError::CrcMismatch;
      Damage = "record CRC mismatch";
    }
    if (Damage && Records.empty())
      throw CheckpointError(Code, std::string(Damage) + " at the base of '" +
                                      Path + "'");
    if (Damage) {
      Note = "'" + Path + "': " + Damage + " at byte " +
             std::to_string(Pos) + "; keeping the base and " +
             std::to_string(numDeltas()) + " intact delta record(s)";
      break;
    }
    Records.push_back({Pos + kFrameBytes, Size});
    Pos += kFrameBytes + Size;
  }
}

ByteReader CheckpointReader::section(uint32_t Tag) const {
  const Record &Base = Records.front();
  if (Base.Size < 4 || getU32(Contents.data() + Base.Offset) != Tag)
    throw CheckpointError(CkptError::Malformed,
                          "'" + Path + "' holds another kind of checkpoint");
  return ByteReader(Contents.data() + Base.Offset + 4, Base.Size - 4);
}

ByteReader CheckpointReader::delta(size_t I) const {
  const Record &R = Records[I + 1];
  return ByteReader(Contents.data() + R.Offset, R.Size);
}

//===----------------------------------------------------------------------===//
// DeltaAppender
//===----------------------------------------------------------------------===//

DeltaAppender::DeltaAppender(const CheckpointWriter &W)
    : Path(W.Path), FileId(W.FileId), End(W.Bytes), TornEnd(W.Bytes),
      FailedEnd(W.Bytes) {}

DeltaAppender::DeltaAppender(const CheckpointReader &R)
    : Path(R.Path), FileId(R.FileId),
      End(R.Records.back().Offset + R.Records.back().Size),
      TornEnd(R.Contents.size()), FailedEnd(End) {}

uint64_t DeltaAppender::append(const std::vector<uint8_t> &Payload) {
  if (!started())
    throw CheckpointError(CkptError::StaleDelta,
                          "delta append without a base record");
  std::vector<uint8_t> Frame = frame(Payload);

  faultInjectionPoint("ckpt.delta.io"); // 1: before opening the file
  Fd F{::open(Path.c_str(), O_RDWR | O_APPEND)};
  if (!F)
    ioError("cannot open", Path);
  uint8_t Head[kHeaderBytes - kIdOffset];
  ssize_t Got = ::pread(F.Raw, Head, sizeof(Head), kIdOffset);
  if (Got < 0)
    ioError("cannot read", Path);
  if (static_cast<size_t>(Got) != sizeof(Head) ||
      std::memcmp(Head, header(FileId).data() + kIdOffset, sizeof(Head)) != 0)
    throw CheckpointError(CkptError::StaleDelta,
                          "'" + Path + "' was replaced since this "
                                       "appender's base was written");
  struct stat St;
  if (::fstat(F.Raw, &St) != 0)
    ioError("cannot stat", Path);
  uint64_t Size = static_cast<uint64_t>(St.st_size);
  if (Size != End && Size != TornEnd && !(Size > End && Size <= FailedEnd))
    throw CheckpointError(CkptError::StaleDelta,
                          "'" + Path + "' holds " + std::to_string(Size) +
                              " bytes; this appender's records end at " +
                              std::to_string(End));
  // A record appended after garbage would be lost to the reader's
  // tail-discard, so the bytes past End go first.
  if (Size != End && ::ftruncate(F.Raw, static_cast<off_t>(End)) != 0)
    ioError("cannot truncate", Path);

  faultInjectionPoint("ckpt.delta.io"); // 2: before the frame write
  FailedEnd = End + Frame.size() + Payload.size();
  writeAll(F.Raw, Frame.data(), Frame.size(), Path);
  faultInjectionPoint("ckpt.delta.io"); // 3: frame on disk, payload not
  writeAll(F.Raw, Payload.data(), Payload.size(), Path);
  faultInjectionPoint("ckpt.delta.io"); // 4: before fsync
  fsyncFd(F.Raw, Path);
  End = TornEnd = FailedEnd;
  return Frame.size() + Payload.size();
}

} // namespace alphonse
