//===- sweep/Checkpoint.cpp - Crash-consistent sweep journal --------------===//

#include "sweep/Checkpoint.h"

#include "support/Varint.h"

#include <cstring>
#include <filesystem>

using namespace grs;
using namespace grs::sweep;

const char *sweep::faultClassName(FaultClass C) {
  switch (C) {
  case FaultClass::None:
    return "none";
  case FaultClass::Watchdog:
    return "watchdog";
  case FaultClass::ForeignException:
    return "foreign_exception";
  case FaultClass::StepLimit:
    return "step_limit";
  case FaultClass::Signal:
    return "signal";
  case FaultClass::OomKill:
    return "oom_kill";
  case FaultClass::Rlimit:
    return "rlimit";
  case FaultClass::PartialExit:
    return "partial_exit";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// Record codec
//===----------------------------------------------------------------------===//

namespace {

void putString(std::vector<uint8_t> &Out, const std::string &Text) {
  support::putVarint(Out, Text.size());
  Out.insert(Out.end(), Text.begin(), Text.end());
}

/// Thin checked-decode cursor shared by the payload and file decoders.
struct Cursor {
  const uint8_t *Data;
  size_t Size;
  size_t &Pos;
  std::string &Error;

  bool varint(uint64_t &Value) {
    support::VarintError E = support::readVarint(Data, Size, Pos, Value);
    if (E == support::VarintError::Ok)
      return true;
    Error = std::string(support::varintErrorText(E)) + " (at byte " +
            std::to_string(Pos) + ")";
    return false;
  }

  bool string(std::string &Text) {
    uint64_t Len = 0;
    if (!varint(Len))
      return false;
    if (Len > Size - Pos) {
      Error = "truncated string (at byte " + std::to_string(Pos) + ")";
      return false;
    }
    Text.assign(reinterpret_cast<const char *>(Data + Pos),
                static_cast<size_t>(Len));
    Pos += static_cast<size_t>(Len);
    return true;
  }
};

} // namespace

void sweep::encodeSlotRecord(std::vector<uint8_t> &Out, const SlotRecord &R) {
  support::putVarint(Out, R.Slot);
  support::putVarint(Out, R.Seed);
  support::putVarint(Out, R.Attempts);
  uint64_t Flags = (R.Quarantined ? 1u : 0u) | (R.Leaked ? 2u : 0u) |
                   (R.Panicked ? 4u : 0u) | (R.Deadlocked ? 8u : 0u);
  support::putVarint(Out, Flags);
  support::putVarint(Out, static_cast<uint64_t>(R.Fault));
  putString(Out, R.FaultDetail);
  support::putVarint(Out, R.RaceCount);
  support::putVarint(Out, R.Reports.size());
  for (const SlotRecord::Report &Rep : R.Reports) {
    support::putVarint(Out, Rep.Fp);
    support::putVarint(Out, Rep.Occurrences);
    putString(Out, Rep.Sample);
  }
}

bool sweep::decodeSlotRecord(const uint8_t *Data, size_t Size, size_t &Pos,
                             SlotRecord &R, std::string &Error) {
  Cursor C{Data, Size, Pos, Error};
  uint64_t Attempts = 0, Flags = 0, Fault = 0, NumReports = 0;
  if (!C.varint(R.Slot) || !C.varint(R.Seed) || !C.varint(Attempts) ||
      !C.varint(Flags) || !C.varint(Fault) || !C.string(R.FaultDetail) ||
      !C.varint(R.RaceCount) || !C.varint(NumReports))
    return false;
  R.Attempts = static_cast<uint32_t>(Attempts);
  R.Quarantined = Flags & 1;
  R.Leaked = Flags & 2;
  R.Panicked = Flags & 4;
  R.Deadlocked = Flags & 8;
  if (Fault >= NumFaultClasses) {
    Error = "bad fault class " + std::to_string(Fault);
    return false;
  }
  R.Fault = static_cast<FaultClass>(Fault);
  R.Reports.clear();
  // Guard the reserve: NumReports is attacker/corruption-controlled.
  if (NumReports > Size - Pos) {
    Error = "report count " + std::to_string(NumReports) +
            " exceeds remaining bytes";
    return false;
  }
  R.Reports.reserve(static_cast<size_t>(NumReports));
  for (uint64_t I = 0; I < NumReports; ++I) {
    SlotRecord::Report Rep;
    if (!C.varint(Rep.Fp) || !C.varint(Rep.Occurrences) ||
        !C.string(Rep.Sample))
      return false;
    R.Reports.push_back(std::move(Rep));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Transport frame codec
//===----------------------------------------------------------------------===//

void sweep::encodeFrame(std::vector<uint8_t> &Out, FrameKind Kind,
                        const uint8_t *Payload, size_t Size) {
  support::putVarint(Out, static_cast<uint64_t>(Kind));
  support::putVarint(Out, Size);
  Out.insert(Out.end(), Payload, Payload + Size);
}

void FrameParser::feed(const uint8_t *Data, size_t Size) {
  // Drop delivered bytes before growing: they never need revisiting, and
  // a long-lived worker stream whose reads often end mid-frame would
  // otherwise grow without bound.
  Buf.erase(Buf.begin(), Buf.begin() + static_cast<std::ptrdiff_t>(Pos));
  Pos = 0;
  Buf.insert(Buf.end(), Data, Data + Size);
}

FrameParser::Status FrameParser::next(FrameKind &Kind,
                                      const uint8_t *&Payload, size_t &Size) {
  size_t P = Pos;
  uint64_t K = 0, Len = 0;
  support::VarintError E = support::readVarint(Buf.data(), Buf.size(), P, K);
  if (E == support::VarintError::Truncated)
    return Status::NeedMore;
  if (E != support::VarintError::Ok ||
      K > static_cast<uint64_t>(FrameKind::Slot))
    return Status::Corrupt;
  E = support::readVarint(Buf.data(), Buf.size(), P, Len);
  if (E == support::VarintError::Truncated)
    return Status::NeedMore;
  if (E != support::VarintError::Ok)
    return Status::Corrupt;
  if (Len > Buf.size() - P)
    return Status::NeedMore;
  Kind = static_cast<FrameKind>(K);
  Payload = Buf.data() + P;
  Size = static_cast<size_t>(Len);
  Pos = P + static_cast<size_t>(Len);
  return Status::Frame;
}

void FrameParser::reset() {
  Buf.clear();
  Pos = 0;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

CheckpointWriter::~CheckpointWriter() { close(); }

void CheckpointWriter::close() {
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
}

bool CheckpointWriter::create(const std::string &Path,
                              const CheckpointMeta &Meta) {
  close();
  File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return false;
  std::vector<uint8_t> Header;
  Header.insert(Header.end(), CheckpointMagic,
                CheckpointMagic + sizeof(CheckpointMagic));
  support::putVarint(Header, CheckpointVersion);
  support::putVarint(Header, Meta.FirstSeed);
  support::putVarint(Header, Meta.NumSeeds);
  support::putVarint(Header, Meta.OptionsHash);
  if (std::fwrite(Header.data(), 1, Header.size(), File) != Header.size() ||
      std::fflush(File) != 0) {
    close();
    return false;
  }
  return true;
}

bool CheckpointWriter::reopen(const std::string &Path,
                              uint64_t DropTailBytes) {
  close();
  if (DropTailBytes) {
    // A crash's partial record is still on disk; appending after it
    // would wedge a new record behind garbage and corrupt the journal
    // for every later reader. Cut it off first.
    std::error_code Ec;
    uintmax_t Size = std::filesystem::file_size(Path, Ec);
    if (Ec || Size < DropTailBytes)
      return false;
    std::filesystem::resize_file(Path, Size - DropTailBytes, Ec);
    if (Ec)
      return false;
  }
  File = std::fopen(Path.c_str(), "ab");
  return File != nullptr;
}

bool CheckpointWriter::append(const SlotRecord &R) {
  if (!File)
    return false;
  std::vector<uint8_t> Payload;
  encodeSlotRecord(Payload, R);
  std::vector<uint8_t> Frame;
  support::putVarint(Frame, Payload.size());
  Frame.insert(Frame.end(), Payload.begin(), Payload.end());
  // One write + one flush per record: a crash leaves at most one
  // truncated tail record, which the reader drops.
  if (std::fwrite(Frame.data(), 1, Frame.size(), File) != Frame.size() ||
      std::fflush(File) != 0) {
    close();
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

bool sweep::decodeCheckpoint(const std::vector<uint8_t> &Bytes,
                             CheckpointLoad &Out, std::string &Error) {
  const uint8_t *Data = Bytes.data();
  size_t Size = Bytes.size();
  size_t Pos = 0;
  Cursor C{Data, Size, Pos, Error};

  if (Size < sizeof(CheckpointMagic)) {
    Error = "truncated header";
    return false;
  }
  if (std::memcmp(Data, CheckpointMagic, sizeof(CheckpointMagic)) != 0) {
    Error = "bad magic (not a GRSCKPT1 journal)";
    return false;
  }
  Pos += sizeof(CheckpointMagic);
  uint64_t Version = 0;
  if (!C.varint(Version))
    return false;
  if (Version != CheckpointVersion) {
    Error = "unsupported checkpoint version " + std::to_string(Version);
    return false;
  }
  if (!C.varint(Out.Meta.FirstSeed) || !C.varint(Out.Meta.NumSeeds) ||
      !C.varint(Out.Meta.OptionsHash))
    return false;

  Out.Records.clear();
  Out.DroppedTailBytes = 0;
  while (Pos < Size) {
    size_t RecordStart = Pos;
    uint64_t Len = 0;
    {
      support::VarintError E = support::readVarint(Data, Size, Pos, Len);
      if (E == support::VarintError::Truncated) {
        // Crash mid-length-prefix: drop the tail.
        Out.DroppedTailBytes = Size - RecordStart;
        Pos = RecordStart;
        return true;
      }
      if (E != support::VarintError::Ok) {
        Error = std::string(support::varintErrorText(E)) + " (at byte " +
                std::to_string(Pos) + ")";
        return false;
      }
    }
    if (Len > Size - Pos) {
      // Crash mid-payload: drop the tail.
      Out.DroppedTailBytes = Size - RecordStart;
      return true;
    }
    SlotRecord R;
    size_t PayloadPos = 0;
    if (!decodeSlotRecord(Data + Pos, static_cast<size_t>(Len), PayloadPos, R,
                          Error)) {
      Error += " (record at byte " + std::to_string(RecordStart) + ")";
      return false;
    }
    if (PayloadPos != Len) {
      Error = "record at byte " + std::to_string(RecordStart) + " has " +
              std::to_string(Len - PayloadPos) + " trailing bytes";
      return false;
    }
    Pos += static_cast<size_t>(Len);
    Out.Records.push_back(std::move(R));
  }
  return true;
}

bool sweep::loadCheckpoint(const std::string &Path, CheckpointLoad &Out,
                           std::string &Error) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    Error = "cannot open " + Path;
    return false;
  }
  std::vector<uint8_t> Bytes;
  uint8_t Buf[64 * 1024];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), File)) > 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  bool ReadOk = !std::ferror(File);
  std::fclose(File);
  if (!ReadOk) {
    Error = "read error on " + Path;
    return false;
  }
  return decodeCheckpoint(Bytes, Out, Error);
}
