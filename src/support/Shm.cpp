//===- support/Shm.cpp - Shared memory, futex, fork plumbing --------------===//

#include "support/Shm.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <unistd.h>

namespace grs {
namespace support {

std::mutex &processForkMutex() {
  static std::mutex M;
  return M;
}

//===----------------------------------------------------------------------===//
// ShmRegion
//===----------------------------------------------------------------------===//

bool ShmRegion::map(size_t Bytes) {
  unmap();
  if (Bytes == 0)
    return false;
  long Page = sysconf(_SC_PAGESIZE);
  if (Page <= 0)
    Page = 4096;
  size_t Rounded = (Bytes + (size_t)Page - 1) & ~((size_t)Page - 1);
  void *P = ::mmap(nullptr, Rounded, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    return false;
  Base = static_cast<uint8_t *>(P);
  Size = Rounded;
  return true;
}

void ShmRegion::unmap() {
  if (Base)
    ::munmap(Base, Size);
  Base = nullptr;
  Size = 0;
}

//===----------------------------------------------------------------------===//
// Futex
//===----------------------------------------------------------------------===//

static long rawFutex(const std::atomic<uint32_t> *Addr, int Op, uint32_t Val,
                     const struct timespec *Timeout) {
  // The kernel writes nothing through Addr for WAIT/WAKE; const_cast is
  // only to satisfy the syscall signature.
  return syscall(SYS_futex,
                 const_cast<uint32_t *>(
                     reinterpret_cast<const uint32_t *>(Addr)),
                 Op, Val, Timeout, nullptr, 0);
}

bool futexAvailable() {
  // Probe once: FUTEX_WAKE on a private word is harmless and returns 0
  // (nobody waiting) on any kernel that has the syscall; ENOSYS means a
  // jail or emulation layer swallowed it.
  static const bool Avail = [] {
    std::atomic<uint32_t> Word{0};
    long R = rawFutex(&Word, FUTEX_WAKE_PRIVATE, 1, nullptr);
    if (R >= 0)
      return true;
    return errno != ENOSYS;
  }();
  return Avail;
}

/// Blocks while *Addr == Expected, up to \p TimeoutMicros (0 = one
/// immediate recheck), on FUTEX_WAIT when \p UseFutex and the kernel
/// allow it, else sleeping with exponential backoff from 2us to 1ms per
/// nap. Spurious wakeups are allowed: callers loop on their condition.
static void waitOnU32(const std::atomic<uint32_t> *Addr, uint32_t Expected,
                      uint64_t TimeoutMicros, bool UseFutex) {
  if (Addr->load(std::memory_order_acquire) != Expected)
    return;
  if (UseFutex && futexAvailable()) {
    struct timespec Ts;
    Ts.tv_sec = (time_t)(TimeoutMicros / 1000000);
    Ts.tv_nsec = (long)(TimeoutMicros % 1000000) * 1000;
    // FUTEX (not _PRIVATE): the word is shared across processes.
    rawFutex(Addr, FUTEX_WAIT, Expected, TimeoutMicros ? &Ts : nullptr);
    return;
  }
  // Sleep-poll fallback: exponential backoff 2us -> 1ms, bounded by the
  // caller's timeout. Correct (the caller loops on its condition), just
  // slower to notice changes.
  uint64_t Slept = 0, Nap = 2;
  while (Slept < (TimeoutMicros ? TimeoutMicros : 1000) &&
         Addr->load(std::memory_order_acquire) == Expected) {
    std::this_thread::sleep_for(std::chrono::microseconds(Nap));
    Slept += Nap;
    Nap = Nap < 1000 ? Nap * 2 : 1000;
  }
}

/// Wakes up to \p Count waiters blocked in waitOnU32(Addr, ...); a no-op
/// (sleep-pollers wake themselves) without futexes.
static void wakeU32(const std::atomic<uint32_t> *Addr, uint32_t Count,
                    bool UseFutex) {
  // FUTEX_WAKE takes a SIGNED waiter count: UINT32_MAX reinterpreted as
  // -1 makes the kernel's wake loop stop after ONE waiter, silently
  // turning "wake all" into "wake one" and stranding every other
  // sleeper until its bounded timeout. Clamp to INT32_MAX.
  if (Count > INT32_MAX)
    Count = INT32_MAX;
  if (UseFutex && futexAvailable())
    rawFutex(Addr, FUTEX_WAKE, Count, nullptr);
}

//===----------------------------------------------------------------------===//
// SPSC byte ring
//===----------------------------------------------------------------------===//

bool shmRingProduce(ShmRingCursors &C, uint8_t *Data, size_t Capacity,
                    const uint8_t *Bytes, size_t Size,
                    const std::atomic<uint32_t> *Stop, bool UseFutex,
                    void (*Notify)(void *), void *NotifyArg) {
  size_t Off = 0;
  while (Off < Size) {
    uint64_t P = C.Produced.load(std::memory_order_relaxed);
    uint64_t Cons = C.Consumed.load(std::memory_order_acquire);
    size_t Free = Capacity - (size_t)(P - Cons);
    if (Free == 0) {
      if (Stop && Stop->load(std::memory_order_acquire))
        return false;
      // Wait for the consumer to move; the mirrored low word is the
      // futex word. Bounded timeout so a missed wake can't hang us.
      waitOnU32(&C.ConsumedW, (uint32_t)Cons, 2000, UseFutex);
      continue;
    }
    size_t Chunk = Size - Off;
    if (Chunk > Free)
      Chunk = Free;
    // Up to two memcpys when the span wraps the ring edge.
    size_t Pos = (size_t)(P % Capacity);
    size_t First = Capacity - Pos;
    if (First > Chunk)
      First = Chunk;
    std::memcpy(Data + Pos, Bytes + Off, First);
    if (Chunk > First)
      std::memcpy(Data, Bytes + Off + First, Chunk - First);
    // Commit cursor: release makes every byte visible before the new
    // cursor value; a parent that reads Produced with acquire sees an
    // intact stream prefix no matter when this process dies.
    C.Produced.store(P + Chunk, std::memory_order_release);
    C.ProducedW.store((uint32_t)(P + Chunk), std::memory_order_release);
    wakeU32(&C.ProducedW, 1, UseFutex);
    if (Notify)
      Notify(NotifyArg);
    Off += Chunk;
  }
  return true;
}

size_t shmRingDrain(ShmRingCursors &C, const uint8_t *Data, size_t Capacity,
                    std::vector<uint8_t> &Out, bool UseFutex) {
  uint64_t Cons = C.Consumed.load(std::memory_order_relaxed);
  uint64_t P = C.Produced.load(std::memory_order_acquire);
  size_t Avail = (size_t)(P - Cons);
  if (Avail == 0)
    return 0;
  size_t Pos = (size_t)(Cons % Capacity);
  size_t First = Capacity - Pos;
  if (First > Avail)
    First = Avail;
  Out.insert(Out.end(), Data + Pos, Data + Pos + First);
  if (Avail > First)
    Out.insert(Out.end(), Data, Data + (Avail - First));
  C.Consumed.store(P, std::memory_order_release);
  C.ConsumedW.store((uint32_t)P, std::memory_order_release);
  wakeU32(&C.ConsumedW, 1, UseFutex);
  return Avail;
}

} // namespace support
} // namespace grs
