//===- sweep/Pool.cpp - Persistent fork-server worker pool ----------------===//

#include "sweep/Pool.h"

#include "inject/Fault.h"
#include "obs/Metrics.h"
#include "obs/Timeline.h"
#include "support/Shm.h"
#include "sweep/Cgroup.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define GRS_HAVE_FORK 1
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif
#else
#define GRS_HAVE_FORK 0
#endif

using namespace grs;
using namespace grs::sweep;

bool sweep::pooledAvailable() {
  return GRS_HAVE_FORK != 0 && support::shmAvailable();
}

#if GRS_HAVE_FORK

namespace {

//===----------------------------------------------------------------------===//
// Shared-memory layout
//
// One anonymous MAP_SHARED mapping, created before any fork so every
// worker inherits it:
//
//   [ PoolControl | JobDesc[JobCap] | WorkEntry[EntryCap]
//     | WorkerShared[W] | spec arena | result arenas[W] ]
//
// WorkEntry slots are append-only (never reused): a slot republished for
// a retry gets a NEW entry, so the claim cursors never wrap. When a job
// would not fit in what remains of the entry ring / spec arena / job
// table, the host recycles — retires the workers and remaps — instead
// of ever reusing an index.
//===----------------------------------------------------------------------===//

/// Parent -> workers. Epoch is the eventcount idle workers sleep on: the
/// parent BUMPS it (so the value changes) and wakes it on every event a
/// sleeper must notice — a publish or shutdown. Waiting on a word whose
/// value does not change at shutdown (e.g. Published) loses the wakeup
/// when the wake lands between a worker's Shutdown check and its futex
/// wait, stalling every pool teardown for the full wait timeout.
struct PoolControl {
  std::atomic<uint32_t> Published; ///< entries visible to workers
  std::atomic<uint32_t> Claim;     ///< next entry index to claim (help-advanced)
  std::atomic<uint32_t> Shutdown;  ///< nonzero -> workers _exit(0)
  std::atomic<uint32_t> Epoch;     ///< bumped+woken on publish/shutdown
};

/// One job recipe, as data a worker can resolve after the fork already
/// happened. Written by the parent BEFORE the job's first entry is
/// published (the Published release store covers it).
struct JobDesc {
  uint64_t SpecOff; ///< into the spec arena
  uint64_t SpecLen;
  uint32_t Traced; ///< nonzero -> record and ship timeline chunks
};

/// One published slot assignment.
struct WorkEntry {
  uint64_t Slot;     ///< written by the parent before publishing
  uint32_t Attempt;  ///< process-level first-attempt number for the run
  uint32_t Job;      ///< index into the JobDesc table
  std::atomic<int32_t> Owner; ///< -1 free; else claiming worker's index
};

/// Per-worker shared state: the result-arena cursors plus the applied
/// sandbox tier report (tier + 1; 0 = not reported yet).
struct WorkerShared {
  support::ShmRingCursors Ring;
  std::atomic<uint32_t> AppliedTier;
};

constexpr size_t alignUp(size_t V, size_t A) { return (V + A - 1) & ~(A - 1); }

/// Offsets of each layout section (64-byte aligned: keeps atomics off
/// shared cache lines between workers).
struct ShmLayout {
  size_t ControlOff = 0;
  size_t JobsOff = 0;
  size_t EntriesOff = 0;
  size_t WorkersOff = 0;
  size_t SpecOff = 0;
  size_t ArenaOff = 0;
  size_t ArenaBytes = 0;
  size_t Total = 0;

  static ShmLayout compute(size_t JobCap, size_t EntryCap, unsigned Workers,
                           size_t SpecBytes, size_t ArenaBytes) {
    ShmLayout L;
    L.ControlOff = 0;
    L.JobsOff = alignUp(sizeof(PoolControl), 64);
    L.EntriesOff = alignUp(L.JobsOff + JobCap * sizeof(JobDesc), 64);
    L.WorkersOff = alignUp(L.EntriesOff + EntryCap * sizeof(WorkEntry), 64);
    L.SpecOff =
        alignUp(L.WorkersOff + Workers * alignUp(sizeof(WorkerShared), 64), 64);
    L.ArenaOff = alignUp(L.SpecOff + SpecBytes, 64);
    L.ArenaBytes = ArenaBytes;
    L.Total = L.ArenaOff + Workers * ArenaBytes;
    return L;
  }

  PoolControl *control(uint8_t *Base) const {
    return reinterpret_cast<PoolControl *>(Base + ControlOff);
  }
  JobDesc *job(uint8_t *Base, size_t I) const {
    return reinterpret_cast<JobDesc *>(Base + JobsOff) + I;
  }
  WorkEntry *entries(uint8_t *Base) const {
    return reinterpret_cast<WorkEntry *>(Base + EntriesOff);
  }
  WorkerShared *worker(uint8_t *Base, unsigned I) const {
    return reinterpret_cast<WorkerShared *>(
        Base + WorkersOff + I * alignUp(sizeof(WorkerShared), 64));
  }
  uint8_t *spec(uint8_t *Base) const { return Base + SpecOff; }
  uint8_t *arena(uint8_t *Base, unsigned I) const {
    return Base + ArenaOff + I * ArenaBytes;
  }
};

void setLimit(int Resource, uint64_t Value) {
  if (!Value)
    return;
  struct rlimit RL;
  RL.rlim_cur = static_cast<rlim_t>(Value);
  RL.rlim_max = static_cast<rlim_t>(Value);
  setrlimit(Resource, &RL);
}

/// This process's address-space size in bytes (the first field of
/// /proc/self/statm), or 0 where that is unreadable.
uint64_t addressSpaceBytes() {
  FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  unsigned long long Pages = 0;
  bool Read = std::fscanf(F, "%llu", &Pages) == 1;
  std::fclose(F);
  return Read ? Pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) : 0;
}

/// Exit code for a worker whose resolver rejected the published spec
/// bytes — a parent/worker disagreement that should be impossible (the
/// parent resolved the same bytes before publishing). Distinct from
/// inject::OomExitCode; classified PartialExit, so the attempt budget
/// bounds the damage.
constexpr int SpecResolveExitCode = 96;

//===----------------------------------------------------------------------===//
// Worker (child side)
//===----------------------------------------------------------------------===//

struct WorkerCtx {
  const PoolHostOptions *Opts;
  ShmLayout Layout;
  uint8_t *Shm;
  unsigned Index;
  int DoorbellFd; ///< write end; O_NONBLOCK (a full doorbell is still rung)
  bool UseFutex;
  bool SkipRlimitAs; ///< cgroup memory.max replaces RLIMIT_AS
  /// The host's address-space size just before fork(), which the worker
  /// starts with: RLIMIT_AS is this plus RlimitAsBytes of headroom.
  uint64_t HostAsBytes;
  pid_t HostPid; ///< pre-fork getpid() of the host, for PDEATHSIG
};

/// Doorbell: one byte per arena advance. EAGAIN means the pipe already
/// holds pending doorbells — the parent will drain regardless. EPIPE
/// means the parent is gone; nothing useful left to do about it here.
void ringDoorbell(void *Arg) {
  int Fd = *static_cast<int *>(Arg);
  uint8_t B = 1;
  (void)!write(Fd, &B, 1);
}

/// The pool worker: claim a published entry, resolve its job's recipe
/// (cached until the job index changes), run it through the SAME
/// runResilientSlot the in-process executor uses, frame the record (and
/// traced timeline delta) into the shm arena, repeat until shutdown.
/// Never returns; never calls exit() (inherited stdio buffers must not
/// be flushed twice), and never unwinds: an exception that escapes it
/// (say, std::bad_alloc under RLIMIT_AS) terminates the worker instead
/// of unwinding into its copy of the host's frames. Opens NOTHING: every
/// fd it touches was pre-opened by the parent — which is what lets
/// DenyFileOpens drop open/openat from the seccomp surface entirely.
[[noreturn]] void workerMain(const WorkerCtx &Ctx) noexcept {
  rt::prepareChildAfterFork();
  // The doorbell write must surface EPIPE, not kill the worker.
  signal(SIGPIPE, SIG_IGN);
#if defined(__linux__)
  // A worker without its host is garbage: if the host is SIGKILLed (the
  // service's crash-recovery battery does exactly this), die with it
  // instead of blocking forever on an eventcount nobody will ever bump.
  // The prctl/getppid pair closes the fork-vs-death race: a host that
  // died before the prctl armed leaves us reparented, and we exit now.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != Ctx.HostPid)
    _exit(0);
#endif
  inject::enterSandbox();
  if (!Ctx.SkipRlimitAs && Ctx.Opts->RlimitAsBytes)
    setLimit(RLIMIT_AS, Ctx.HostAsBytes + Ctx.Opts->RlimitAsBytes);
  setLimit(RLIMIT_CPU, Ctx.Opts->RlimitCpuSeconds);
  setLimit(RLIMIT_STACK, Ctx.Opts->RlimitStackBytes);
  // Workers die by signal ON PURPOSE; no core files.
  struct rlimit NoCore = {0, 0};
  setrlimit(RLIMIT_CORE, &NoCore);

  PoolControl *Control = Ctx.Layout.control(Ctx.Shm);
  WorkEntry *Entries = Ctx.Layout.entries(Ctx.Shm);
  WorkerShared *WS = Ctx.Layout.worker(Ctx.Shm, Ctx.Index);
  uint8_t *Arena = Ctx.Layout.arena(Ctx.Shm, Ctx.Index);
  const uint8_t *SpecArena = Ctx.Layout.spec(Ctx.Shm);
  size_t Capacity = Ctx.Layout.ArenaBytes;
  int Doorbell = Ctx.DoorbellFd;

  // Optional hardening, applied LAST in the setup sequence (it may deny
  // syscalls the setup itself needs). The achieved tier is reported
  // through shared memory — no syscall required to tell the parent.
  SandboxTier Tier =
      applyWorkerSandbox(Ctx.Opts->EnableSeccomp, Ctx.Opts->EnableLandlock,
                         Ctx.Opts->DenyFileOpens);
  WS->AppliedTier.store(static_cast<uint32_t>(Tier) + 1,
                        std::memory_order_release);

  // Per-job recipe cache. Resolved from spec bytes on first claim of a
  // new job index; the resolver itself crossed at fork time (it was
  // fixed at host construction).
  int64_t CurJob = -1;
  ResilientOptions Base;
  std::unique_ptr<obs::Timeline> ChildTimeline;
  obs::TimelineTrack *Track = nullptr;

  std::vector<uint8_t> Frame;
  for (;;) {
    // Eventcount discipline: sample the epoch BEFORE checking the
    // conditions it covers. If the parent publishes or shuts down after
    // this load, the epoch no longer matches and the wait below returns
    // immediately instead of sleeping through the wake.
    uint32_t Ep = Control->Epoch.load(std::memory_order_acquire);
    if (Control->Shutdown.load(std::memory_order_acquire))
      _exit(0);
    uint32_t C = Control->Claim.load(std::memory_order_acquire);
    uint32_t P = Control->Published.load(std::memory_order_acquire);
    if (C >= P) {
      // Nothing to claim: sleep on the epoch (bounded, so a futex-less
      // host still re-checks Shutdown on a cadence).
      support::waitOnU32(&Control->Epoch, Ep, 100'000, Ctx.UseFutex);
      continue;
    }
    WorkEntry &E = Entries[C];
    int32_t Free = -1;
    bool Claimed = E.Owner.compare_exchange_strong(
        Free, static_cast<int32_t>(Ctx.Index), std::memory_order_acq_rel);
    // Help-advance the claim cursor whether or not we won; the winner
    // may have been killed between its CAS and its advance, and work
    // behind a stuck cursor would never be claimed.
    uint32_t Cc = C;
    Control->Claim.compare_exchange_strong(Cc, C + 1,
                                           std::memory_order_acq_rel);
    if (!Claimed)
      continue;

    if (static_cast<int64_t>(E.Job) != CurJob) {
      const JobDesc *JD = Ctx.Layout.job(Ctx.Shm, E.Job);
      Base = ResilientOptions();
      if (!Ctx.Opts->Resolve ||
          !Ctx.Opts->Resolve(SpecArena + JD->SpecOff,
                             static_cast<size_t>(JD->SpecLen), Base))
        _exit(SpecResolveExitCode);
      // Parent-owned machinery never crosses the fork; the worker
      // reports ONLY through the arena.
      Base.Metrics = nullptr;
      Base.Run.Metrics = nullptr;
      Base.Run.TimelineTrack = nullptr;
      Base.Timeline = nullptr;
      Base.CheckpointPath.clear();
      Base.Resume = false;
      Base.CancelFlag = nullptr;
      Base.OnSlotDone = nullptr;
      ChildTimeline = std::make_unique<obs::Timeline>(JD->Traced != 0);
      Track = JD->Traced ? ChildTimeline->track("worker") : nullptr;
      CurJob = static_cast<int64_t>(E.Job);
    }

    SlotRecord R = runResilientSlot(Base, E.Slot, E.Attempt, Track);
    Frame.clear();
    {
      std::vector<uint8_t> Payload;
      encodeSlotRecord(Payload, R);
      encodeFrame(Frame, FrameKind::SlotRecord, Payload.data(),
                  Payload.size());
    }
    if (Track) {
      std::vector<uint8_t> Chunk;
      obs::Timeline::encodeTrackChunk(Chunk, *Track);
      encodeFrame(Frame, FrameKind::TimelineChunk, Chunk.data(),
                  Chunk.size());
    }
    // One produce call per slot: the record frame and its timeline
    // chunk land contiguously; Produced advances only over written
    // bytes (the commit cursor the salvage story rests on).
    if (!support::shmRingProduce(WS->Ring, Arena, Capacity, Frame.data(),
                                 Frame.size(), &Control->Shutdown,
                                 Ctx.UseFutex, ringDoorbell, &Doorbell))
      _exit(0); // shutdown raced our produce; parent no longer reading
  }
}

//===----------------------------------------------------------------------===//
// Parent-side supervision state
//===----------------------------------------------------------------------===//

struct WorkerSup {
  pid_t Pid = -1;
  int DoorR = -1;          ///< doorbell read end, O_NONBLOCK
  bool Alive = false;
  bool KilledByUs = false; ///< SIGKILLed for stall or corrupt stream
  FrameParser Parser;
  std::chrono::steady_clock::time_point LastProgress;
  int64_t ObservedEntry = -1; ///< last owned entry seen (stall tracking)
  uint64_t OomKillBase = 0;   ///< cgroup oom_kill counter at spawn
};

/// Parent-side mirror of one published entry.
struct PubEntry {
  uint64_t Slot = 0;
  uint32_t Attempt = 1;
  bool Resolved = false;
};

} // namespace

#endif // GRS_HAVE_FORK

//===----------------------------------------------------------------------===//
// PoolHost
//===----------------------------------------------------------------------===//

struct PoolHost::Impl {
  PoolHostOptions Opts;
  PoolHostStats Host;
  unsigned Workers = 1;
  bool UseFutex = false;
#if GRS_HAVE_FORK
  support::ShmRegion Shm;
  ShmLayout Layout;
  bool Mapped = false;
  size_t EntryCap = 0;
  size_t SpecCap = 0;
  size_t JobCap = 0;
  uint32_t JobCount = 0;
  size_t SpecUsed = 0;
  std::vector<PubEntry> Pub; ///< mirror of every published entry
  std::vector<WorkerSup> Sup;
  CgroupMemory Cg;

  /// Drops the mapping and every per-mapping structure. Callers must
  /// have retired (or killed and reaped) the workers first.
  void resetMapping() {
    Cg.teardown();
    Shm.unmap();
    Mapped = false;
    JobCount = 0;
    SpecUsed = 0;
    Pub.clear();
    Sup.clear();
  }

  /// Orderly worker retirement: wake everyone into the Shutdown check,
  /// give a grace window, then SIGKILL stragglers. Teardown deaths are
  /// not deaths — no job is in flight when this runs.
  void retireWorkers() {
    using Clock = std::chrono::steady_clock;
    if (!Mapped)
      return;
    uint8_t *Base = Shm.data();
    PoolControl *Control = Layout.control(Base);
    Control->Shutdown.store(1, std::memory_order_release);
    Control->Epoch.fetch_add(1, std::memory_order_release);
    support::wakeU32(&Control->Epoch, UINT32_MAX, UseFutex);
    for (unsigned W = 0; W < Sup.size(); ++W)
      support::wakeU32(&Layout.worker(Base, W)->Ring.ConsumedW, UINT32_MAX,
                       UseFutex);
    Clock::time_point Grace = Clock::now() + std::chrono::seconds(2);
    for (WorkerSup &S : Sup) {
      if (!S.Alive)
        continue;
      int Status = 0;
      // A woken worker exits within microseconds, and a one-shot pooled()
      // sweep pays this wait on every call: poll fast first, then back off.
      std::chrono::microseconds Nap(10);
      for (;;) {
        pid_t R = waitpid(S.Pid, &Status, WNOHANG);
        if (R == S.Pid || (R < 0 && errno != EINTR))
          break;
        if (Clock::now() >= Grace) {
          kill(S.Pid, SIGKILL);
          while (waitpid(S.Pid, &Status, 0) < 0 && errno == EINTR)
            ;
          break;
        }
        std::this_thread::sleep_for(Nap);
        Nap = std::min(Nap * 2, std::chrono::microseconds(1000));
      }
      if (S.DoorR >= 0)
        close(S.DoorR);
      S.DoorR = -1;
      S.Alive = false;
    }
  }

  /// Makes the mapping able to take a job needing \p NeedEntries ring
  /// entries and \p NeedSpec spec bytes, recycling (retire + remap) when
  /// the append-only structures cannot fit it. \returns false only when
  /// mmap itself refuses.
  bool ensureCapacity(size_t NeedEntries, size_t NeedSpec) {
    if (Mapped) {
      uint32_t Published =
          Layout.control(Shm.data())->Published.load(std::memory_order_relaxed);
      bool Fits = JobCount < JobCap &&
                  Published + NeedEntries <= EntryCap &&
                  SpecUsed + NeedSpec <= SpecCap;
      if (!Fits) {
        retireWorkers();
        resetMapping();
        ++Host.Recycles;
      }
    }
    if (Mapped)
      return true;
    EntryCap = std::max<size_t>(std::max<size_t>(Opts.RingEntries, 1),
                                NeedEntries);
    SpecCap = std::max<size_t>(std::max<uint64_t>(Opts.SpecArenaBytes, 8),
                               NeedSpec);
    JobCap = std::max<uint32_t>(Opts.MaxJobs, 1);
    size_t ArenaBytes = std::max<uint64_t>(Opts.ArenaBytes, 256);
    Layout = ShmLayout::compute(JobCap, EntryCap, Workers, SpecCap,
                                ArenaBytes);
    if (!Shm.map(Layout.Total))
      return false;
    uint8_t *Base = Shm.data();
    new (Layout.control(Base)) PoolControl{};
    WorkEntry *Entries = Layout.entries(Base);
    for (size_t I = 0; I < EntryCap; ++I) {
      Entries[I].Slot = 0;
      Entries[I].Attempt = 1;
      Entries[I].Job = 0;
      new (&Entries[I].Owner) std::atomic<int32_t>(-1);
    }
    for (unsigned I = 0; I < Workers; ++I)
      new (Layout.worker(Base, I)) WorkerShared{};
    Sup.clear();
    Sup.resize(Workers);
    Pub.clear();
    Pub.reserve(EntryCap);
    JobCount = 0;
    SpecUsed = 0;
    Mapped = true;
    // cgroup memory accounting (opt-in; transparent fallback), one
    // cgroup set per mapping generation.
    if (Opts.UseCgroupMemory)
      Cg.setup(Workers, Opts.RlimitAsBytes);
    return true;
  }
#endif // GRS_HAVE_FORK
};

PoolHost::PoolHost(PoolHostOptions Opts) : M(std::make_unique<Impl>()) {
  M->Opts = std::move(Opts);
  unsigned W = M->Opts.Workers ? M->Opts.Workers
                               : std::thread::hardware_concurrency();
  M->Workers = W ? W : 1;
  M->UseFutex = !M->Opts.ForceNoFutex && support::futexAvailable();
}

PoolHost::~PoolHost() { shutdown(); }

void PoolHost::shutdown() {
#if GRS_HAVE_FORK
  if (M->Mapped) {
    M->retireWorkers();
    M->resetMapping();
  }
#endif
}

const PoolHostStats &PoolHost::hostStats() const { return M->Host; }

PoolResult PoolHost::run(const PoolRunRequest &Req) {
  PoolResult Result;
  PoolStats &Stats = Result.Stats;
  Impl &I = *M;

  //===--------------------------------------------------------------------===//
  // Resolve the recipe parent-side: checkpoint meta, degradation rungs,
  // and the in-process rescue paths all need it. Workers resolve the
  // same bytes independently on their side of the fork.
  //===--------------------------------------------------------------------===//
  ResilientOptions Base;
  if (!I.Opts.Resolve ||
      !I.Opts.Resolve(Req.Spec.data(), Req.Spec.size(), Base)) {
    Result.Res.CheckpointError = "job spec resolution failed";
    return Result;
  }
  Base.Metrics = Req.Metrics;
  Base.Timeline = Req.Timeline;
  Base.CheckpointPath = Req.CheckpointPath;
  Base.Resume = Req.Resume;
  Base.CancelFlag = Req.CancelFlag;
  Base.OnSlotDone = Req.OnSlotDone;

  //===--------------------------------------------------------------------===//
  // The pool rung, unless fork or shared memory is missing (or forced
  // off); everything else takes the in-process rung below.
  //===--------------------------------------------------------------------===//
  bool WantPool = !I.Opts.ForceForkFree && pooledAvailable();

#if GRS_HAVE_FORK
  if (WantPool) {
    using Clock = std::chrono::steady_clock;
    bool UseFutex = I.UseFutex;
    Stats.FutexSignalled = UseFutex;
    uint32_t MaxAttempts = Base.MaxAttempts ? Base.MaxAttempts : 1;

    size_t N = static_cast<size_t>(Base.NumSeeds);
    std::vector<SlotRecord> Slots(N);
    std::vector<uint8_t> Done(N, 0);
    CheckpointWriter Writer;
    openResilientCheckpoint(Base, Writer, Slots, Done, Result.Res);

    std::vector<uint64_t> Pending;
    for (size_t S = 0; S < N; ++S)
      if (!Done[S])
        Pending.push_back(S);

    bool Cancelled =
        Req.CancelFlag && Req.CancelFlag->load(std::memory_order_relaxed);

    size_t NeedEntries = std::max<size_t>(
        1, Pending.size() * static_cast<size_t>(MaxAttempts));
    size_t NeedSpec = alignUp(std::max<size_t>(Req.Spec.size(), 1), 8);
    bool PoolReady = Pending.empty() || Cancelled ||
                     I.ensureCapacity(NeedEntries, NeedSpec);
    if (!PoolReady) {
      // mmap refused at this size: take the in-process rung. Close the
      // journal handle first; resilient() reopens it.
      Writer.close();
      WantPool = false;
    }

    if (PoolReady && !Pending.empty() && !Cancelled) {
      ++I.Host.JobsRun;
      uint8_t *ShmBase = I.Shm.data();
      PoolControl *Control = I.Layout.control(ShmBase);
      WorkEntry *Entries = I.Layout.entries(ShmBase);

      //===----------------------------------------------------------------===//
      // Register the job: spec bytes into the arena, descriptor into the
      // table. The first Published release-store covers both.
      //===----------------------------------------------------------------===//
      uint32_t JobIdx = I.JobCount++;
      JobDesc *JD = I.Layout.job(ShmBase, JobIdx);
      if (!Req.Spec.empty())
        std::memcpy(I.Layout.spec(ShmBase) + I.SpecUsed, Req.Spec.data(),
                    Req.Spec.size());
      JD->SpecOff = I.SpecUsed;
      JD->SpecLen = Req.Spec.size();
      JD->Traced = Req.Timeline ? 1 : 0;
      I.SpecUsed += NeedSpec;

      //===----------------------------------------------------------------===//
      // Per-run bookkeeping
      //===----------------------------------------------------------------===//
      const uint32_t RunStart =
          Control->Published.load(std::memory_order_relaxed);
      std::vector<int64_t> EntryOfSlot(N, -1); // slot -> live entry index
      std::vector<uint32_t> DeathsOfSlot(N, 0);
      size_t Resolved = 0;
      const size_t Total = Pending.size();
      uint32_t RespawnStreak = 0;
      Clock::time_point RespawnReady = Clock::now();
      bool RespawnWaiting = false;
      unsigned Seats = static_cast<unsigned>(
          std::min<size_t>(I.Workers, std::max<size_t>(Total, 1)));

      obs::TimelineTrack *Track =
          Req.Timeline ? Req.Timeline->track("pool-supervisor") : nullptr;
      obs::TimelineScope PoolSpan =
          Track ? obs::TimelineScope(Track, "pool",
                                     "\"workers\":" + std::to_string(Seats) +
                                         ",\"slots\":" + std::to_string(Total))
                : obs::TimelineScope();

      auto Deliver = [&](SlotRecord R) {
        // First delivery wins; duplicates (impossible by protocol, but
        // robustness code assumes its own bugs) resolve nothing.
        uint64_t S = R.Slot;
        if (S >= N || Done[S])
          return false;
        Done[S] = 1;
        if (Writer.isOpen() && !Writer.append(R))
          Result.Res.CheckpointError =
              "journal append failed; checkpointing stopped";
        if (Req.OnSlotDone)
          Req.OnSlotDone(R);
        Slots[S] = std::move(R);
        if (EntryOfSlot[S] >= 0)
          I.Pub[static_cast<size_t>(EntryOfSlot[S])].Resolved = true;
        ++Resolved;
        RespawnStreak = 0;
        RespawnWaiting = false;
        return true;
      };

      auto Publish = [&](uint64_t Slot, uint32_t Attempt) {
        uint32_t Idx = Control->Published.load(std::memory_order_relaxed);
        // ensureCapacity bounded published work by construction; a slot
        // is published at most MaxAttempts times.
        WorkEntry &E = Entries[Idx];
        E.Slot = Slot;
        E.Attempt = Attempt;
        E.Job = JobIdx;
        E.Owner.store(-1, std::memory_order_relaxed);
        I.Pub.push_back({Slot, Attempt, false});
        EntryOfSlot[Slot] = static_cast<int64_t>(Idx);
        Control->Published.store(Idx + 1, std::memory_order_release);
        Control->Epoch.fetch_add(1, std::memory_order_release);
        support::wakeU32(&Control->Epoch, UINT32_MAX, UseFutex);
      };

      auto Spawn = [&](unsigned W) -> bool {
        WorkerSup &S = I.Sup[W];
        pid_t HostPid = getpid();
        // Fresh doorbell per spawn: created after every other live
        // worker forked, so no sibling can inherit (and hold open) its
        // write end — POLLHUP on death stays reliable.
        int Fds[2] = {-1, -1};
        WorkerShared *WS = I.Layout.worker(ShmBase, W);
        // The dead predecessor's stream is gone: drop any partial tail
        // and restart the ring at zero (no concurrent producer exists).
        WS->Ring.Produced.store(0, std::memory_order_relaxed);
        WS->Ring.Consumed.store(0, std::memory_order_relaxed);
        WS->Ring.ProducedW.store(0, std::memory_order_relaxed);
        WS->Ring.ConsumedW.store(0, std::memory_order_relaxed);
        S.Parser.reset();
        pid_t Pid = -1;
        {
          std::lock_guard<std::mutex> Lock(support::processForkMutex());
          if (pipe(Fds) != 0)
            return false;
          fcntl(Fds[0], F_SETFL, O_NONBLOCK);
          fcntl(Fds[1], F_SETFL, O_NONBLOCK);
          uint64_t HostAsBytes = addressSpaceBytes();
          Pid = fork();
          if (Pid == 0) {
            close(Fds[0]);
            // Doorbell read ends of other workers belong to the parent.
            for (unsigned J = 0; J < I.Workers; ++J)
              if (J != W && I.Sup[J].DoorR >= 0)
                close(I.Sup[J].DoorR);
            WorkerCtx Ctx;
            Ctx.Opts = &I.Opts;
            Ctx.Layout = I.Layout;
            Ctx.Shm = ShmBase;
            Ctx.Index = W;
            Ctx.DoorbellFd = Fds[1];
            Ctx.UseFutex = UseFutex;
            Ctx.SkipRlimitAs = I.Cg.active();
            Ctx.HostAsBytes = HostAsBytes;
            Ctx.HostPid = HostPid;
            workerMain(Ctx);
          }
          close(Fds[1]);
          if (Pid < 0) {
            close(Fds[0]);
            return false;
          }
        }
        if (I.Cg.active()) {
          I.Cg.attach(W, Pid);
          uint64_t Kills = I.Cg.oomKills(W);
          S.OomKillBase = Kills == UINT64_MAX ? 0 : Kills;
        }
        S.Pid = Pid;
        S.DoorR = Fds[0];
        S.Alive = true;
        S.KilledByUs = false;
        S.LastProgress = Clock::now();
        S.ObservedEntry = -1;
        ++Stats.WorkerSpawns;
        ++I.Host.TotalSpawns;
        if (Track)
          Track->instant("spawn", "\"worker\":" + std::to_string(W) +
                                      ",\"pid\":" + std::to_string(Pid));
        return true;
      };

      /// Drains worker W's arena and delivers every complete frame.
      /// \returns false on a corrupt stream.
      std::vector<uint8_t> DrainBuf;
      auto DrainWorker = [&](unsigned W) -> bool {
        WorkerSup &S = I.Sup[W];
        WorkerShared *WS = I.Layout.worker(ShmBase, W);
        DrainBuf.clear();
        size_t Got = support::shmRingDrain(WS->Ring,
                                           I.Layout.arena(ShmBase, W),
                                           I.Layout.ArenaBytes, DrainBuf,
                                           UseFutex);
        if (Got == 0)
          return true;
        Stats.ArenaBytesReceived += Got;
        S.Parser.feed(DrainBuf.data(), DrainBuf.size());
        for (;;) {
          FrameKind Kind;
          const uint8_t *Payload = nullptr;
          size_t Len = 0;
          FrameParser::Status St = S.Parser.next(Kind, Payload, Len);
          if (St == FrameParser::Status::NeedMore)
            return true;
          if (St == FrameParser::Status::Corrupt)
            return false;
          if (Kind == FrameKind::TimelineChunk) {
            size_t ChunkPos = 0;
            obs::Timeline *Tl = Req.Timeline;
            if (!Tl ||
                !Tl->adoptTrackChunk(Payload, Len, ChunkPos,
                                     static_cast<uint32_t>(S.Pid), "") ||
                ChunkPos != Len)
              return false;
            ++Stats.TimelineChunks;
            continue;
          }
          SlotRecord R;
          size_t Pos = 0;
          std::string Error;
          if (!decodeSlotRecord(Payload, Len, Pos, R, Error) || Pos != Len)
            return false;
          if (Deliver(std::move(R)))
            S.LastProgress = Clock::now();
        }
      };

      /// Handles a worker that stopped (doorbell HUP, or reaped by the
      /// WNOHANG sweep with \p Reaped already holding its status):
      /// salvage the arena, classify, charge the victim slot, maybe
      /// quarantine or republish.
      auto HandleDeath = [&](unsigned W, bool Reaped, int ReapedStatus) {
        WorkerSup &S = I.Sup[W];
        // Salvage BEFORE classification: complete frames committed
        // below the Produced cursor are real results; only the partial
        // tail (a frame the worker died mid-write) is discarded.
        bool StreamOk = DrainWorker(W);
        int Status = ReapedStatus;
        if (!Reaped)
          while (waitpid(S.Pid, &Status, 0) < 0 && errno == EINTR)
            ;
        close(S.DoorR);
        S.DoorR = -1;
        S.Alive = false;

        bool CleanExit = !S.KilledByUs && WIFEXITED(Status) &&
                         WEXITSTATUS(Status) == 0;
        bool ShuttingDown = Control->Shutdown.load(std::memory_order_acquire);
        // Find the victim: the (at most one) unresolved entry this
        // worker owned. A worker claims entry K+1 only after fully
        // committing entry K's frames, so after the salvage drain at
        // most one owned entry can lack a record. Entries before this
        // run's window were all resolved when their runs ended.
        int64_t Victim = -1;
        uint32_t Published = Control->Published.load(std::memory_order_acquire);
        for (uint32_t E = RunStart; E < Published; ++E) {
          if (Entries[E].Owner.load(std::memory_order_acquire) ==
                  static_cast<int32_t>(W) &&
              !I.Pub[E].Resolved) {
            Victim = static_cast<int64_t>(E);
            break;
          }
        }
        if (ShuttingDown && CleanExit)
          return; // orderly shutdown exit, not a death
        if (Victim < 0 && CleanExit)
          return; // idle worker obeying shutdown-by-produce-abort
        ChildDeath D =
            !StreamOk || S.KilledByUs
                ? classifyChildDeath(Status, true)
                : classifyChildDeath(Status, false);
        if (Stats.CgroupMemory && !S.KilledByUs && StreamOk &&
            WIFSIGNALED(Status) && WTERMSIG(Status) == SIGKILL) {
          // Real memory accounting: an external SIGKILL is the kernel
          // OOM killer only if this worker's cgroup says so.
          uint64_t Kills = I.Cg.oomKills(W);
          if (Kills != UINT64_MAX && Kills <= S.OomKillBase)
            D = {FaultClass::Signal,
                 "child killed by signal " + std::to_string(SIGKILL)};
        }
        ++Stats.DeathsByClass[static_cast<size_t>(D.Class)];
        if (S.KilledByUs || !StreamOk)
          ++Stats.SupervisorKills;
        if (Track)
          Track->instant("worker-death",
                         "\"worker\":" + std::to_string(W) + ",\"class\":\"" +
                             faultClassName(D.Class) + "\"");
        if (Victim < 0)
          return; // death between slots: no record was in flight
        PubEntry &V = I.Pub[static_cast<size_t>(Victim)];
        uint64_t Slot = V.Slot;
        uint32_t Used = V.Attempt;
        V.Resolved = true; // this entry is spent either way
        ++DeathsOfSlot[Slot];
        bool Poisoned = I.Opts.PoisonWorkerDeaths &&
                        DeathsOfSlot[Slot] >= I.Opts.PoisonWorkerDeaths;
        if (Used >= MaxAttempts || Poisoned) {
          SlotRecord Q;
          Q.Slot = Slot;
          Q.Seed = Base.FirstSeed + Slot;
          Q.Attempts = Used;
          Q.Quarantined = true;
          Q.Fault = D.Class;
          Q.FaultDetail = D.Detail;
          Deliver(std::move(Q));
          if (DeathsOfSlot[Slot] >= Used || Poisoned)
            ++Stats.PoisonSlots;
          if (Track)
            Track->instant("quarantine", "\"slot\":" + std::to_string(Slot));
        } else {
          Publish(Slot, Used + 1);
        }
      };

      //===----------------------------------------------------------------===//
      // Fill the work ring, top up the pool, supervise to completion.
      // A warm host re-enters here with its workers already alive and
      // asleep on the epoch: the Publish wakes them and nothing forks.
      //===----------------------------------------------------------------===//
      for (uint64_t Slot : Pending)
        Publish(Slot, 1);
      unsigned Live = 0;
      for (unsigned W = 0; W < I.Workers; ++W)
        if (I.Sup[W].Alive)
          ++Live;
      for (unsigned W = 0; W < Seats && Live < Seats; ++W)
        if (!I.Sup[W].Alive && Spawn(W))
          ++Live;
      if (Live == 0) {
        // Cannot fork at all right now. Nothing alive will claim what was
        // just published, and left in the ring it would be the next job's
        // first claims: drop the mapping and take the in-process rung, as
        // when mmap refuses. resilient() reopens the journal.
        I.resetMapping();
        Writer.close();
        WantPool = false;
      }
      Stats.CgroupMemory = I.Cg.active();

      while (WantPool && Resolved < Total) {
        if (Req.CancelFlag &&
            Req.CancelFlag->load(std::memory_order_relaxed)) {
          Cancelled = true;
          break;
        }
        Clock::time_point Now = Clock::now();
        // Stall supervision: progress = a delivered record OR a claim
        // transition (a worker picking up new work resets its clock; a
        // worker with no owned unresolved entry is idle, never stalled).
        if (I.Opts.WorkerStallMillis) {
          for (unsigned W = 0; W < I.Workers; ++W) {
            WorkerSup &S = I.Sup[W];
            if (!S.Alive || S.KilledByUs)
              continue;
            int64_t Owned = -1;
            uint32_t Published =
                Control->Published.load(std::memory_order_acquire);
            for (uint32_t E = RunStart; E < Published; ++E)
              if (Entries[E].Owner.load(std::memory_order_acquire) ==
                      static_cast<int32_t>(W) &&
                  !I.Pub[E].Resolved)
                Owned = static_cast<int64_t>(E);
            if (Owned != S.ObservedEntry) {
              S.ObservedEntry = Owned;
              S.LastProgress = Now;
              continue;
            }
            if (Owned < 0)
              continue;
            auto Quiet = std::chrono::duration_cast<std::chrono::milliseconds>(
                             Now - S.LastProgress)
                             .count();
            if (Quiet >= static_cast<int64_t>(I.Opts.WorkerStallMillis)) {
              kill(S.Pid, SIGKILL);
              S.KilledByUs = true;
              if (Track)
                Track->instant("stall-kill",
                               "\"worker\":" + std::to_string(W));
            }
          }
        }

        // Lazy respawn with exponential backoff: only when published
        // work sits unclaimed and a worker seat is empty.
        uint32_t Claim = Control->Claim.load(std::memory_order_acquire);
        uint32_t Published = Control->Published.load(std::memory_order_acquire);
        bool UnclaimedWork = Claim < Published;
        unsigned LiveWorkers = 0;
        for (unsigned W = 0; W < I.Workers; ++W)
          if (I.Sup[W].Alive)
            ++LiveWorkers;
        if (UnclaimedWork && LiveWorkers < Seats) {
          if (!RespawnWaiting && RespawnStreak > 0 &&
              I.Opts.RespawnBackoffMicros) {
            uint64_t Wait = I.Opts.RespawnBackoffMicros
                            << std::min<uint32_t>(RespawnStreak - 1, 32);
            Wait = std::min(Wait, I.Opts.RespawnBackoffMaxMicros
                                      ? I.Opts.RespawnBackoffMaxMicros
                                      : Wait);
            RespawnReady = Now + std::chrono::microseconds(Wait);
            RespawnWaiting = true;
            ++Stats.BackoffWaits;
            Stats.BackoffMicros += Wait;
            if (Track)
              Track->instant("backoff",
                             "\"micros\":" + std::to_string(Wait));
          }
          if (!RespawnWaiting || Now >= RespawnReady) {
            RespawnWaiting = false;
            for (unsigned W = 0; W < I.Workers; ++W)
              if (!I.Sup[W].Alive) {
                if (Spawn(W)) {
                  ++Stats.Respawns;
                  ++RespawnStreak;
                  if (Track)
                    Track->instant("respawn",
                                   "\"worker\":" + std::to_string(W));
                }
                break; // one respawn per pass: storms stay paced
              }
          }
        } else if (!UnclaimedWork && LiveWorkers == 0 && Resolved < Total) {
          // Every unresolved entry is owned by a dead worker whose
          // death was already handled — impossible by construction
          // (HandleDeath republishes or quarantines the victim). If a
          // kernel surprise gets us here anyway, finish in-process
          // instead of spinning forever.
          for (uint64_t Slot : Pending)
            if (!Done[Slot])
              Deliver(runResilientSlot(Base, Slot, 1, Track));
          break;
        }

        // Poll every live doorbell; timeout short enough to notice
        // stalls, backoff expiries, and cancellation.
        std::vector<struct pollfd> PFDs;
        std::vector<unsigned> PfdWorker;
        for (unsigned W = 0; W < I.Workers; ++W)
          if (I.Sup[W].Alive && I.Sup[W].DoorR >= 0) {
            PFDs.push_back({I.Sup[W].DoorR, POLLIN, 0});
            PfdWorker.push_back(W);
          }
        int TimeoutMs = 100;
        if (RespawnWaiting) {
          auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          RespawnReady - Clock::now())
                          .count();
          TimeoutMs = std::max<int>(0, std::min<int64_t>(TimeoutMs, Left));
        }
        if (PFDs.empty()) {
          if (TimeoutMs > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::min(TimeoutMs, 10)));
        } else {
          int PR = poll(PFDs.data(), static_cast<nfds_t>(PFDs.size()),
                        TimeoutMs);
          if (PR < 0 && errno != EINTR)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }

        for (size_t P = 0; P < PFDs.size(); ++P) {
          unsigned W = PfdWorker[P];
          WorkerSup &S = I.Sup[W];
          if (!S.Alive)
            continue;
          if (PFDs[P].revents & POLLIN) {
            uint8_t Junk[4096];
            while (read(S.DoorR, Junk, sizeof(Junk)) > 0)
              ;
            if (!DrainWorker(W)) {
              // Corrupt stream: the worker is as dead as a crashed one.
              kill(S.Pid, SIGKILL);
              S.KilledByUs = true;
              HandleDeath(W, false, 0);
              continue;
            }
          }
          if (PFDs[P].revents & (POLLHUP | POLLERR))
            HandleDeath(W, false, 0);
        }
        // Belt and braces: a worker that died without traffic on its
        // doorbell this pass (e.g. killed while idle) shows up here.
        for (unsigned W = 0; W < I.Workers; ++W) {
          if (!I.Sup[W].Alive)
            continue;
          int Status = 0;
          pid_t R = waitpid(I.Sup[W].Pid, &Status, WNOHANG);
          if (R == I.Sup[W].Pid)
            HandleDeath(W, true, Status);
        }
      }

      //===----------------------------------------------------------------===//
      // Cancelled: SIGKILL the workers, reap, then salvage every frame
      // committed before the kill into the journal — a cancelled run
      // loses only uncommitted work. The mapping cannot be reused (ring
      // entries for this job are still claimed), so reset it; the next
      // run remaps and reforks. Teardown kills are not deaths.
      //===----------------------------------------------------------------===//
      if (Cancelled) {
        for (unsigned W = 0; W < I.Workers; ++W) {
          WorkerSup &S = I.Sup[W];
          if (!S.Alive)
            continue;
          kill(S.Pid, SIGKILL);
          int Status = 0;
          while (waitpid(S.Pid, &Status, 0) < 0 && errno == EINTR)
            ;
        }
        for (unsigned W = 0; W < I.Workers; ++W) {
          WorkerSup &S = I.Sup[W];
          if (S.Pid < 0)
            continue;
          (void)DrainWorker(W); // commit-cursor salvage; corruption just
                                // ends that worker's stream early
          if (S.DoorR >= 0)
            close(S.DoorR);
          S.DoorR = -1;
          S.Alive = false;
        }
        Stats.Cancelled = true;
        if (Track)
          Track->instant("cancel", "\"resolved\":" + std::to_string(Resolved));
      }

      // Weakest tier any worker reported (unreported workers died
      // before setup finished; they don't weaken the floor). Read
      // before any reset unmaps the report words.
      uint32_t MinTier = UINT32_MAX;
      for (unsigned W = 0; WantPool && W < I.Workers; ++W) {
        uint32_t T = I.Layout.worker(ShmBase, W)
                         ->AppliedTier.load(std::memory_order_acquire);
        if (T != 0)
          MinTier = std::min(MinTier, T - 1);
      }
      if (MinTier != UINT32_MAX)
        Stats.Tier = static_cast<SandboxTier>(MinTier);

      if (Cancelled) {
        I.resetMapping();
        ++I.Host.CancelTeardowns;
      }
    } else if (PoolReady && Cancelled) {
      Stats.Cancelled = true;
    }

    if (WantPool) {
      Writer.close();
      for (size_t S = 0; S < N; ++S)
        if (!Done[S])
          ++Result.Res.UnfinishedSlots;
      if (Result.Res.UnfinishedSlots == 0) {
        mergeSlotRecords(Slots, Result.Res);
      } else {
        std::vector<SlotRecord> Finished;
        Finished.reserve(N -
                         static_cast<size_t>(Result.Res.UnfinishedSlots));
        for (size_t S = 0; S < N; ++S)
          if (Done[S])
            Finished.push_back(Slots[S]);
        mergeSlotRecords(Finished, Result.Res);
      }
      for (uint64_t Slot : Pending)
        if (Done[Slot] && Slots[Slot].Attempts)
          Result.Res.Retries += Slots[Slot].Attempts - 1;
    }
  }
#endif // GRS_HAVE_FORK

  if (!WantPool) {
    // The in-process rung: same slot code, same merge, same journal.
    // Process-lethal injected faults downgrade to foreign exceptions
    // here (inject::inSandbox), so the host survives with weaker
    // containment.
    Result.Res = resilient(Base);
    Stats.ForkFree = true;
    Stats.Cancelled = Result.Res.UnfinishedSlots != 0;
  }

  //===--------------------------------------------------------------------===//
  // Instruments
  //===--------------------------------------------------------------------===//
  if (obs::Registry *Reg = Req.Metrics) {
    obs::inc(Reg->counter("grs_pool_worker_spawns_total"), Stats.WorkerSpawns);
    obs::inc(Reg->counter("grs_pool_respawns_total"), Stats.Respawns);
    obs::inc(Reg->counter("grs_pool_supervisor_kills_total"),
             Stats.SupervisorKills);
    obs::inc(Reg->counter("grs_pool_poison_slots_total"), Stats.PoisonSlots);
    obs::inc(Reg->counter("grs_pool_arena_bytes_total"),
             Stats.ArenaBytesReceived);
    obs::inc(Reg->counter("grs_pool_timeline_chunks_total"),
             Stats.TimelineChunks);
    obs::inc(Reg->counter("grs_pool_backoff_waits_total"), Stats.BackoffWaits);
    obs::inc(Reg->counter("grs_pool_backoff_micros_total"),
             Stats.BackoffMicros);
    for (size_t C = 0; C < NumFaultClasses; ++C)
      if (Stats.DeathsByClass[C])
        obs::inc(Reg->counter(
                     "grs_pool_worker_deaths_total",
                     {{"class", faultClassName(static_cast<FaultClass>(C))}}),
                 Stats.DeathsByClass[C]);
    obs::set(Reg->gauge("grs_isolation_sandbox_tier"),
             static_cast<double>(Stats.Tier));
    obs::set(Reg->gauge("grs_pool_cgroup_memory"),
             Stats.CgroupMemory ? 1.0 : 0.0);
    obs::set(Reg->gauge("grs_pool_futex_signalled"),
             Stats.FutexSignalled ? 1.0 : 0.0);
    obs::set(Reg->gauge("grs_pool_fork_free"), Stats.ForkFree ? 1.0 : 0.0);
    obs::set(Reg->gauge("grs_pool_recycles"),
             static_cast<double>(I.Host.Recycles));
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// pooled(): the one-shot wrapper
//===----------------------------------------------------------------------===//

PoolResult sweep::pooled(const PoolOptions &Opts) {
  PoolHostOptions H = Opts.Host;
  H.Workers = Opts.Base.Threads;
  // Single job: size the mapping to it exactly.
  H.RingEntries = 1;
  H.SpecArenaBytes = 8;
  H.MaxJobs = 1;
  // The body crosses the fork legally because the resolver (and its
  // captured recipe) exists before PoolHost forks anything. Parent-side
  // handles travel on the request instead, mirroring what a spec-born
  // job would do.
  ResilientOptions Captured = Opts.Base;
  Captured.Metrics = nullptr;
  Captured.Timeline = nullptr;
  Captured.CheckpointPath.clear();
  Captured.Resume = false;
  Captured.CancelFlag = nullptr;
  Captured.OnSlotDone = nullptr;
  H.Resolve = [Captured](const uint8_t *, size_t, ResilientOptions &Out) {
    Out = Captured;
    return true;
  };

  PoolHost Host(std::move(H));
  PoolRunRequest Req;
  Req.CheckpointPath = Opts.Base.CheckpointPath;
  Req.Resume = Opts.Base.Resume;
  Req.Metrics = Opts.Base.Metrics;
  Req.Timeline = Opts.Base.Timeline;
  Req.CancelFlag = Opts.Base.CancelFlag;
  Req.OnSlotDone = Opts.Base.OnSlotDone;
  return Host.run(Req);
}
