//===- sweep/Checkpoint.h - Crash-consistent sweep journal ------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The append-only checkpoint journal behind sweep::resilient: one record
/// per completed sweep slot, flushed as soon as the slot finishes, so a
/// sweep killed at ANY byte boundary resumes to a bit-identical
/// SweepResult instead of rerunning six hours of schedules (the paper's
/// pipeline ran sweeps for six months; ours should survive a reboot).
///
/// Format (reusing the trace varint encoding, support/Varint.h; all
/// integers unsigned LEB128):
///
///   file    := magic[8] = "GRSCKPT1", meta, record*
///   meta    := version varint (1), FirstSeed, NumSeeds, OptionsHash
///   record  := length varint, payload[length]
///   payload := Slot, Seed, Attempts, Flags, FaultClass,
///              detail-len, detail-bytes,
///              RaceCount, NumReports,
///              (Fp, Occurrences, sample-len, sample-bytes)*
///   Flags   := bit0 Quarantined, bit1 Leaked, bit2 Panicked,
///              bit3 Deadlocked
///
/// Crash consistency: every record is length-prefixed and fflush()ed
/// individually. A crash mid-write leaves a truncated tail; the reader
/// keeps every complete record and reports the dropped byte count —
/// never an error — so resume degrades to "rerun the last slot".
/// OptionsHash binds a journal to the exact sweep recipe (seed range,
/// retry policy, the verdict-relevant RunOptions); resuming under a
/// different recipe is rejected instead of silently mixing results.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_SWEEP_CHECKPOINT_H
#define GRS_SWEEP_CHECKPOINT_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace grs {
namespace sweep {

/// Magic bytes opening every checkpoint journal.
inline constexpr char CheckpointMagic[8] = {'G', 'R', 'S', 'C',
                                            'K', 'P', 'T', '1'};

/// Current (and only) journal version.
inline constexpr uint32_t CheckpointVersion = 1;

/// How a slot's run failed, when it failed for infrastructure reasons
/// (as opposed to the program under test legitimately racing/panicking).
enum class FaultClass : uint8_t {
  None = 0,         ///< Completed: the verdict below is the result.
  Watchdog,         ///< rt watchdog fired (soft or hard path) — or the
                    ///< sweep::pooled supervisor killed a stalled worker.
  ForeignException, ///< A C++ exception crossed the fiber boundary.
  StepLimit,        ///< MaxSteps tripped (livelock / scheduler stall).
  // Process-death classes: only sweep::pooled produces these — they
  // describe how a sandboxed worker DIED, observed by the parent via
  // waitpid(). Appended (never reordered) so journals written before the
  // extension still decode.
  Signal,      ///< Child killed by a signal (SIGSEGV/SIGBUS/SIGABRT/...).
  OomKill,     ///< Allocation failure under RLIMIT_AS (child exited
               ///< inject::OomExitCode) or an external SIGKILL presumed
               ///< to be the kernel OOM killer.
  Rlimit,      ///< A resource limit fired (SIGXCPU from RLIMIT_CPU).
  PartialExit, ///< Child exited without producing every expected record.
};

inline constexpr size_t NumFaultClasses = 8;

/// Stable lower-case name of \p C (instrument label / diagnostics).
const char *faultClassName(FaultClass C);

/// Kind tags for the frames a sandboxed worker streams back to its
/// supervisor over its shm arena ring (sweep::pooled). TRANSPORT
/// PROTOCOL ONLY —
/// the on-disk journal keeps its original kind-less `length, payload`
/// record framing. A frame is `kind varint, length varint,
/// payload[length]`; both ends are always the same binary, so the tag
/// needs no version negotiation.
enum class FrameKind : uint8_t {
  SlotRecord = 0,    ///< payload = encodeSlotRecord() of a completed slot.
  TimelineChunk = 1, ///< payload = obs::Timeline::encodeTrackChunk() —
                     ///< child flight-recorder events for stitching.
};

/// Appends one kind-tagged transport frame to \p Out.
void encodeFrame(std::vector<uint8_t> &Out, FrameKind Kind,
                 const uint8_t *Payload, size_t Size);

/// Incremental decoder for a kind-tagged frame stream. Bytes arrive in
/// arbitrary slices (pipe reads, shm-ring drains); next() hands back
/// each complete frame exactly once and reports a partial tail as
/// NeedMore — which is also how a producer death mid-frame surfaces: the
/// stream simply ends with buffered() > 0 and the supervisor discards
/// the tail, the atomic half of the salvage-or-discard contract.
///
/// Used by sweep::pooled's supervisor on every worker arena: one parser,
/// one corruption policy.
class FrameParser {
public:
  enum class Status {
    NeedMore, ///< No complete frame buffered; feed more bytes.
    Frame,    ///< Kind/Payload/Size describe one complete frame.
    Corrupt,  ///< Malformed stream (bad varint, unknown kind). Terminal:
              ///< the producer is as dead as a crashed one.
  };

  /// Appends a slice of the stream.
  void feed(const uint8_t *Data, size_t Size);

  /// Extracts the next complete frame. The payload pointer is valid
  /// until the next feed()/next()/reset() call.
  Status next(FrameKind &Kind, const uint8_t *&Payload, size_t &Size);

  /// Bytes buffered but not yet delivered as frames — after EOF, the
  /// size of the discarded partial tail.
  size_t buffered() const { return Buf.size() - Pos; }

  void reset();

private:
  std::vector<uint8_t> Buf;
  size_t Pos = 0;
};

/// Everything the sweep aggregation needs from one completed run — the
/// payload of one journal record and the unit the resilient executor's
/// parity argument is built on: merge SlotRecords in slot order and you
/// reproduce pipeline::sweep's serial aggregation exactly.
struct SlotRecord {
  /// 0-based slot in the sweep's planned order; Seed = FirstSeed + Slot.
  uint64_t Slot = 0;
  uint64_t Seed = 0;
  /// Attempts consumed (1 = first try succeeded). Deterministic: the run
  /// is a pure function of the seed, so so is the retry trajectory.
  uint32_t Attempts = 1;
  /// True when every attempt infra-faulted and the slot was excluded
  /// from the aggregate.
  bool Quarantined = false;
  /// Last attempt's failure class (None when the slot completed).
  FaultClass Fault = FaultClass::None;
  /// Deterministic diagnostic for the fault (watchdog detail, first
  /// foreign-exception message, ...). Empty when None.
  std::string FaultDetail;

  /// The verdict (meaningful when !Quarantined).
  bool Leaked = false;
  bool Panicked = false;
  bool Deadlocked = false;
  uint64_t RaceCount = 0;
  /// Deduplicated reports of the run, in first-occurrence order:
  /// fingerprint, occurrences within this run, rendered sample of the
  /// fingerprint's first report in this run.
  struct Report {
    uint64_t Fp = 0;
    uint64_t Occurrences = 0;
    std::string Sample;

    bool operator==(const Report &) const = default;
  };
  std::vector<Report> Reports;

  bool operator==(const SlotRecord &) const = default;
};

/// Journal identity: the sweep recipe a journal belongs to.
struct CheckpointMeta {
  uint64_t FirstSeed = 0;
  uint64_t NumSeeds = 0;
  /// Fnv1a over the verdict-relevant sweep options (see
  /// resilientOptionsHash); a resume with a different hash is rejected.
  uint64_t OptionsHash = 0;

  bool operator==(const CheckpointMeta &) const = default;
};

//===----------------------------------------------------------------------===//
// Record codec (exposed for property tests)
//===----------------------------------------------------------------------===//

/// Appends \p R's payload encoding (no length prefix) to \p Out.
void encodeSlotRecord(std::vector<uint8_t> &Out, const SlotRecord &R);

/// Decodes one payload from Data[Pos..Size). \returns false on malformed
/// input (message in \p Error); \p Pos then points at the offending byte.
bool decodeSlotRecord(const uint8_t *Data, size_t Size, size_t &Pos,
                      SlotRecord &R, std::string &Error);

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

/// Append-only journal writer. Thread-compatible, not thread-safe: the
/// resilient executor serializes appends under its merge mutex.
class CheckpointWriter {
public:
  CheckpointWriter() = default;
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter &) = delete;
  CheckpointWriter &operator=(const CheckpointWriter &) = delete;

  /// Creates/truncates \p Path and writes the header. \returns false on
  /// I/O failure.
  bool create(const std::string &Path, const CheckpointMeta &Meta);

  /// Reopens \p Path for appending after a successful load (resume).
  /// The caller is responsible for having validated the header. \p
  /// DropTailBytes (CheckpointLoad::DroppedTailBytes) is truncated off
  /// the file first — appending after a crash's partial record would
  /// corrupt the journal for every later reader.
  bool reopen(const std::string &Path, uint64_t DropTailBytes = 0);

  /// Appends one record and flushes it to the OS. \returns false on I/O
  /// failure (the journal is then closed; the sweep itself continues).
  bool append(const SlotRecord &R);

  void close();
  bool isOpen() const { return File != nullptr; }

private:
  std::FILE *File = nullptr;
};

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

/// A loaded journal: header plus every complete record, append order.
struct CheckpointLoad {
  CheckpointMeta Meta;
  std::vector<SlotRecord> Records;
  /// Bytes of truncated tail dropped (crash mid-append); 0 for a journal
  /// that was closed cleanly.
  uint64_t DroppedTailBytes = 0;
};

/// Decodes a journal image. Truncated tails are tolerated (see file
/// comment); bad magic/version or a corrupt record body are errors.
bool decodeCheckpoint(const std::vector<uint8_t> &Bytes, CheckpointLoad &Out,
                      std::string &Error);

/// Reads and decodes \p Path. \returns false on I/O or decode failure.
bool loadCheckpoint(const std::string &Path, CheckpointLoad &Out,
                    std::string &Error);

} // namespace sweep
} // namespace grs

#endif // GRS_SWEEP_CHECKPOINT_H
