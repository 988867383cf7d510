//===- support/Shm.h - Shared memory, futex, fork plumbing ------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The low-level process-shared plumbing under the fork-server worker
/// pool (sweep/Pool.h): an anonymous MAP_SHARED mapping both sides of a
/// fork() can use as one coherent memory, a futex wrapper with a runtime
/// capability probe and a sleep-backoff fallback, a single-producer /
/// single-consumer byte ring that lives INSIDE such a mapping, and the
/// process-wide fork lock every forking executor must hold while the
/// window {create fds; fork(); close parent-only ends} is open.
///
/// Everything degrades: no mmap -> ShmRegion::map() fails and the caller
/// falls back to its pipe-based executor; no futex (non-Linux, or a
/// seccomp jail that denies the syscall) -> waitOnU32 becomes a bounded
/// exponential sleep-poll that is slower but correct. None of it ever
/// affects verdicts — this layer moves bytes and wakes sleepers, nothing
/// else.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_SUPPORT_SHM_H
#define GRS_SUPPORT_SHM_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace grs {
namespace support {

//===----------------------------------------------------------------------===//
// Process-wide fork serialization
//===----------------------------------------------------------------------===//

/// The one lock every executor must hold across {create pipes/fds;
/// fork(); close parent-only ends}. Without it, a child forked by a
/// SIBLING thread mid-window inherits fds it will never close — the
/// classic leak that keeps a pipe's write end alive after its owner died,
/// so the reader never sees EOF/HUP. Every forking executor (today
/// sweep::pooled's hosts) takes this lock, so two hosts running
/// concurrently never leak each other's fds into their workers.
std::mutex &processForkMutex();

//===----------------------------------------------------------------------===//
// Anonymous shared mapping
//===----------------------------------------------------------------------===//

/// True when this build/platform can create MAP_SHARED|MAP_ANONYMOUS
/// mappings a fork() child shares with its parent.
bool shmAvailable();

/// An anonymous shared mapping (RAII). After fork(), parent and child see
/// the SAME physical pages; std::atomic objects placement-constructed in
/// it synchronize across the process boundary (all lock-free atomics on
/// the supported platforms are address-free).
class ShmRegion {
public:
  ShmRegion() = default;
  ~ShmRegion() { unmap(); }

  ShmRegion(const ShmRegion &) = delete;
  ShmRegion &operator=(const ShmRegion &) = delete;

  /// Maps \p Bytes (rounded up to the page size) of zeroed shared memory.
  /// \returns false when the platform has no shm or mmap failed; the
  /// region is then empty and the caller must degrade.
  bool map(size_t Bytes);
  void unmap();

  uint8_t *data() { return Base; }
  const uint8_t *data() const { return Base; }
  size_t size() const { return Size; }
  explicit operator bool() const { return Base != nullptr; }

private:
  uint8_t *Base = nullptr;
  size_t Size = 0;
};

//===----------------------------------------------------------------------===//
// Futex with capability probe and sleep-poll fallback
//===----------------------------------------------------------------------===//

/// True when the kernel answers FUTEX_WAIT/FUTEX_WAKE (probed once per
/// process with a harmless call). False on non-Linux platforms, ancient
/// kernels, and seccomp jails that deny the syscall — waitOnU32 then
/// degrades to exponential sleep-polling.
bool futexAvailable();

/// Blocks while *Addr == Expected, up to \p TimeoutMicros (0 = one
/// immediate recheck). Uses FUTEX_WAIT when available (\p UseFutex lets a
/// caller force the fallback for testing); otherwise sleeps with
/// exponential backoff from 2us to 1ms per nap, never past the timeout.
/// Spurious wakeups are allowed and expected: callers must loop on their
/// real condition. Safe on a std::atomic<uint32_t> living in shared
/// memory.
void waitOnU32(const std::atomic<uint32_t> *Addr, uint32_t Expected,
               uint64_t TimeoutMicros, bool UseFutex = true);

/// Wakes up to \p Count waiters blocked in waitOnU32(Addr, ...). A no-op
/// (correctly so: sleep-pollers wake themselves) when futex is
/// unavailable or \p UseFutex is false.
void wakeU32(const std::atomic<uint32_t> *Addr, uint32_t Count,
             bool UseFutex = true);

//===----------------------------------------------------------------------===//
// Single-producer / single-consumer byte ring over caller memory
//===----------------------------------------------------------------------===//

/// Cursor block of a SPSC byte ring. Lives at a caller-chosen spot inside
/// an ShmRegion; the data area is a separate caller-provided span. The
/// producer (a pool worker) appends frame bytes and advances Produced;
/// the consumer (the pool parent) copies them out and advances Consumed.
///
/// Produced is the COMMIT CURSOR of the pool's salvage story: a worker
/// advances it only over bytes that are fully written, so whatever the
/// parent finds at or below Produced after a worker death is intact
/// stream prefix — complete frames in it are salvaged, the partial tail
/// (a frame the worker died mid-write) is discarded by the frame parser.
/// Cursors are monotone byte counts (never wrapped); ring offsets are
/// cursor % capacity. ProducedW/ConsumedW mirror the low 32 bits of the
/// cursors because a futex word must be exactly 32 bits.
struct ShmRingCursors {
  std::atomic<uint64_t> Produced{0};
  std::atomic<uint64_t> Consumed{0};
  /// Low 32 bits of Produced/Consumed, mirrored for futex wait/wake (a
  /// futex word must be exactly 32 bits).
  std::atomic<uint32_t> ProducedW{0};
  std::atomic<uint32_t> ConsumedW{0};
};

/// Producer side: appends Size bytes, blocking (futex/backoff) while the
/// ring is full. \p Notify is called (may be null) after every cursor
/// advance so the producer can ring its doorbell — the consumer might be
/// asleep in poll() and must be told to drain before more space appears.
/// \returns false if \p Stop became nonzero while waiting (pool
/// shutdown), with the frame partially written — the producer must not
/// write anything further.
bool shmRingProduce(ShmRingCursors &C, uint8_t *Data, size_t Capacity,
                    const uint8_t *Bytes, size_t Size,
                    const std::atomic<uint32_t> *Stop, bool UseFutex,
                    void (*Notify)(void *), void *NotifyArg);

/// Consumer side: copies every byte in [Consumed, Produced) into \p Out
/// (appending), advances Consumed, and wakes a producer waiting on ring
/// space. \returns the number of bytes drained. Never blocks.
size_t shmRingDrain(ShmRingCursors &C, const uint8_t *Data, size_t Capacity,
                    std::vector<uint8_t> &Out, bool UseFutex);

} // namespace support
} // namespace grs

#endif // GRS_SUPPORT_SHM_H
