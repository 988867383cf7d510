//===- support/Shm.h - Shared memory, futex, fork plumbing ------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-shared plumbing. Two parts:
///
///   - processForkMutex(): the process-wide lock every forking executor
///     (today sweep::PoolHost) holds across {create fds; fork(); close
///     parent-only ends}.
///
///   - A single-producer / single-consumer byte ring that lives inside an
///     anonymous MAP_SHARED mapping both sides of a fork() see as one
///     memory, with a futex capability probe and a sleep-poll fallback.
///     The worker pool does not use it (sweep/Pool.h gives each worker a
///     socket); it stays for the repo benchmark's
///     `support.shm_frame_rtt_us` probe (perfbench/Layers.cpp) and its
///     ShmRing tests.
///
/// Nothing here ever affects verdicts: it moves bytes and wakes sleepers.
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

/// The one lock every executor must hold across {create fds; fork();
/// close parent-only ends}. Without it, a child forked by a SIBLING
/// thread mid-window inherits fds it will never close — the classic leak
/// that keeps a socket's far end alive after its owner died, so the
/// reader never sees end of file. Every forking executor (today
/// sweep::PoolHost) takes this lock, so two hosts running concurrently
/// never leak each other's fds into their workers.
std::mutex &processForkMutex();

//===----------------------------------------------------------------------===//
// Anonymous shared mapping
//===----------------------------------------------------------------------===//

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
  /// \returns false when mmap failed; the region is then empty.
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
/// process with a harmless call). False on ancient kernels and seccomp
/// jails that deny the syscall — the ring then waits by exponential
/// sleep-polling, slower but correct.
bool futexAvailable();

//===----------------------------------------------------------------------===//
// Single-producer / single-consumer byte ring over caller memory
//===----------------------------------------------------------------------===//

/// Cursor block of a SPSC byte ring. Lives at a caller-chosen spot inside
/// an ShmRegion; the data area is a separate caller-provided span. The
/// producer appends frame bytes and advances Produced; the consumer
/// copies them out and advances Consumed.
///
/// Produced is a COMMIT CURSOR: the producer advances it only over bytes
/// that are fully written, so whatever a consumer finds at or below
/// Produced after a producer death is an intact stream prefix. Cursors
/// are monotone byte counts (never wrapped); ring offsets are cursor %
/// capacity. ProducedW/ConsumedW mirror the low 32 bits of the
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
/// \returns false if \p Stop became nonzero while waiting, with the frame
/// partially written — the producer must not write anything further.
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
