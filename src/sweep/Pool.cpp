//===- sweep/Pool.cpp - Persistent fork-server worker pool ----------------===//

#include "sweep/Pool.h"

#include "inject/Fault.h"
#include "obs/Metrics.h"
#include "obs/Timeline.h"
#include "support/Shm.h"
#include "support/Varint.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace grs;
using namespace grs::sweep;

namespace {

using Clock = std::chrono::steady_clock;

/// Slots one worker holds at most. At 16, a 24-seed job on two workers
/// goes out in one send per worker; a window of 4 refilled mid-job and
/// cost throughput (EXPERIMENTS.md, "Pool over sockets").
constexpr size_t SlotsInFlight = 16;

/// The descriptor a worker's end of its socket is moved to.
constexpr int WorkerFd = 3;

/// Cap on one respawn backoff wait, microseconds: however long a crash
/// storm lasts, a respawn waits at most half a second.
constexpr uint64_t RespawnBackoffCapMicros = 500'000;

/// Exit code of a worker that cannot follow its host's stream: a frame
/// it cannot parse, or a spec its resolver rejects (the host resolved
/// the same bytes before sending them, so this should be impossible).
/// Distinct from inject::OomExitCode; classified PartialExit, so the
/// attempt budget bounds the damage.
constexpr int ProtocolExitCode = 96;

/// One slot handed out at a process-level first-attempt number.
struct Assignment {
  uint64_t Slot;
  uint32_t Attempt;
};

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

/// Sends all of \p Bytes. \returns false once the peer is gone: a dead
/// peer is EPIPE here, never SIGPIPE.
bool sendAll(int Fd, const uint8_t *Bytes, size_t Size) {
  while (Size) {
    ssize_t N = send(Fd, Bytes, Size, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Bytes += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

/// Appends a frame whose payload is the varints \p Values.
void encodeVarintFrame(std::vector<uint8_t> &Out, FrameKind Kind,
                       std::initializer_list<uint64_t> Values) {
  std::vector<uint8_t> Payload;
  for (uint64_t V : Values)
    support::putVarint(Payload, V);
  encodeFrame(Out, Kind, Payload.data(), Payload.size());
}

//===----------------------------------------------------------------------===//
// Worker (child side)
//===----------------------------------------------------------------------===//

/// The pool worker: report the sandbox tier, then read Job and Slot
/// frames from fd 3, run each slot through the SAME runResilientSlot the
/// in-process executor uses, and answer it with its record (and traced
/// timeline delta), until the host closes the socket. Never returns;
/// never calls exit() (inherited stdio buffers must not be flushed
/// twice), and never unwinds: an exception that escapes it (say,
/// std::bad_alloc under RLIMIT_AS) terminates the worker instead of
/// unwinding into its copy of the host's frames. Opens NOTHING.
[[noreturn]] void workerMain(const PoolHostOptions &Opts,
                             uint64_t HostAsBytes) noexcept {
  rt::prepareChildAfterFork();
  // A worker without its host is garbage: if the host is SIGKILLed (the
  // service's crash-recovery battery does exactly this) mid-slot, die
  // with it. A host that died before this prctl armed closed its end of
  // the socket, and the first send or read below ends the worker.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  inject::enterSandbox();
  if (Opts.RlimitAsBytes) {
    struct rlimit As;
    As.rlim_cur = As.rlim_max =
        static_cast<rlim_t>(HostAsBytes + Opts.RlimitAsBytes);
    setrlimit(RLIMIT_AS, &As);
  }
  // Workers die by signal ON PURPOSE; no core files.
  struct rlimit NoCore = {0, 0};
  setrlimit(RLIMIT_CORE, &NoCore);

  // Optional hardening, applied LAST in the setup sequence (it may deny
  // syscalls the setup itself needs).
  std::vector<uint8_t> Out;
  encodeVarintFrame(Out, FrameKind::Tier,
                    {static_cast<uint64_t>(applyWorkerSandbox(
                        Opts.EnableSeccomp, Opts.EnableLandlock))});
  if (!sendAll(WorkerFd, Out.data(), Out.size()))
    _exit(0);

  // The current job's recipe, resolved from the Job frame's spec bytes;
  // the resolver itself crossed at fork time (it was fixed at host
  // construction).
  ResilientOptions Base;
  std::unique_ptr<obs::Timeline> ChildTimeline;
  obs::TimelineTrack *Track = nullptr;
  FrameParser In;
  uint8_t Buf[16 << 10];
  for (;;) {
    FrameKind Kind;
    const uint8_t *Payload = nullptr;
    size_t Len = 0;
    FrameParser::Status St = In.next(Kind, Payload, Len);
    if (St == FrameParser::Status::NeedMore) {
      ssize_t N = read(WorkerFd, Buf, sizeof(Buf));
      if (N > 0)
        In.feed(Buf, static_cast<size_t>(N));
      else if (N == 0 || errno != EINTR)
        _exit(0); // the host closed its end: retire
      continue;
    }
    if (St == FrameParser::Status::Corrupt)
      _exit(ProtocolExitCode);

    if (Kind == FrameKind::Job) {
      Base = ResilientOptions();
      if (Len == 0 || !Opts.Resolve ||
          !Opts.Resolve(Payload + 1, Len - 1, Base))
        _exit(ProtocolExitCode);
      // Parent-owned machinery never crosses the fork; the worker
      // reports ONLY through its socket.
      Base.Metrics = nullptr;
      Base.Run.Metrics = nullptr;
      Base.Run.TimelineTrack = nullptr;
      Base.Timeline = nullptr;
      Base.CheckpointPath.clear();
      Base.Resume = false;
      Base.CancelFlag = nullptr;
      Base.OnSlotDone = nullptr;
      bool Traced = Payload[0] != 0;
      ChildTimeline = std::make_unique<obs::Timeline>(Traced);
      Track = Traced ? ChildTimeline->track("worker") : nullptr;
      continue;
    }
    uint64_t Slot = 0, Attempt = 0;
    size_t Pos = 0;
    if (Kind != FrameKind::Slot ||
        support::readVarint(Payload, Len, Pos, Slot) !=
            support::VarintError::Ok ||
        support::readVarint(Payload, Len, Pos, Attempt) !=
            support::VarintError::Ok)
      _exit(ProtocolExitCode);

    SlotRecord R =
        runResilientSlot(Base, Slot, static_cast<uint32_t>(Attempt), Track);
    Out.clear();
    {
      std::vector<uint8_t> Record;
      encodeSlotRecord(Record, R);
      encodeFrame(Out, FrameKind::SlotRecord, Record.data(), Record.size());
    }
    if (Track) {
      std::vector<uint8_t> Chunk;
      obs::Timeline::encodeTrackChunk(Chunk, *Track);
      encodeFrame(Out, FrameKind::TimelineChunk, Chunk.data(), Chunk.size());
    }
    // One send per slot: the record frame and its timeline chunk travel
    // together, and a death mid-send leaves a torn tail the host's
    // parser discards.
    if (!sendAll(WorkerFd, Out.data(), Out.size()))
      _exit(0);
  }
}

//===----------------------------------------------------------------------===//
// Parent-side state
//===----------------------------------------------------------------------===//

/// One worker seat, as its host sees it.
struct Worker {
  pid_t Pid = -1;           ///< -1 once reaped
  int Fd = -1;              ///< host end of the socket; -1 for an empty seat
  bool KilledByUs = false;  ///< SIGKILLed for a stall or a corrupt stream
  int Tier = -1;            ///< SandboxTier the worker reported; -1 before
  uint64_t Job = 0;         ///< the job whose spec it was sent (JobSeq)
  Clock::time_point LastProgress;
  FrameParser Parser;
  /// Slots sent and not yet answered, in the order sent (= run order).
  std::deque<Assignment> Held;
  /// Frames batched for the next send.
  std::vector<uint8_t> Out;

  bool alive() const { return Fd >= 0; }
};

/// What a host keeps between jobs.
struct Fleet {
  PoolHostOptions Opts;
  PoolHostStats Host;
  std::vector<Worker> Seats;
  /// Counts pool runs, so the host knows which spec each worker holds.
  uint64_t JobSeq = 0;

  /// Orderly retirement: close every host end, so each worker reads end
  /// of file and exits; SIGKILL whoever is still there after a grace
  /// window. Runs between jobs only, so no exit here is a death.
  void retire() {
    for (Worker &S : Seats)
      if (S.alive()) {
        close(S.Fd);
        S.Fd = -1;
      }
    Clock::time_point Grace = Clock::now() + std::chrono::seconds(2);
    for (Worker &S : Seats) {
      if (S.Pid < 0)
        continue;
      int Status = 0;
      // A retired worker exits within microseconds, and a one-shot
      // pooled() sweep pays this wait on every call: poll fast first,
      // then back off.
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
      S.Pid = -1;
    }
  }
};

/// One job on a fleet: the queue of unassigned slots, the journal, and
/// the supervision loop.
class JobRun {
public:
  JobRun(Fleet &F, const PoolRunRequest &Req, const ResilientOptions &Base,
         PoolResult &Result)
      : F(F), Req(Req), Base(Base), Res(Result.Res), Stats(Result.Stats),
        MaxAttempts(Base.MaxAttempts ? Base.MaxAttempts : 1),
        N(static_cast<size_t>(Base.NumSeeds)), Slots(N), Done(N, 0),
        DeathsOfSlot(N, 0) {}

  /// Runs the job. \returns false, with nothing run and the journal
  /// closed, when not one worker could be forked.
  bool run();

private:
  bool spawn(unsigned W);
  void deliver(SlotRecord R);
  void killStalled(Clock::time_point Now);
  void respawnIfShort(Clock::time_point Now);
  void dispatch(Clock::time_point Now);
  enum class Stream { Open, Ended, Corrupt };
  /// Reads \p S's socket until it would block or ends, consuming every
  /// complete frame.
  Stream readSocket(Worker &S);
  /// Consumes every complete frame \p S's parser holds. \returns false
  /// on a corrupt stream.
  bool readFrames(Worker &S);
  /// Reads worker W's socket; a worker whose stream ended (or turned
  /// corrupt) is handled as dead.
  void drain(unsigned W);
  void handleDeath(unsigned W);
  /// Kills and reaps every worker, then journals what their sockets
  /// still held.
  void cancel();
  unsigned live() const;

  Fleet &F;
  const PoolRunRequest &Req;
  const ResilientOptions &Base;
  ResilientResult &Res;
  PoolStats &Stats;
  const uint32_t MaxAttempts;
  const size_t N;

  std::vector<SlotRecord> Slots;
  std::vector<uint8_t> Done;
  std::vector<uint32_t> DeathsOfSlot;
  CheckpointWriter Writer;
  std::deque<Assignment> Queue; ///< unassigned work, in hand-out order
  size_t Resolved = 0;
  size_t Total = 0;
  unsigned Seats = 0;
  uint32_t RespawnStreak = 0;
  Clock::time_point RespawnReady;
  bool RespawnWaiting = false;
  obs::TimelineTrack *Track = nullptr;
};

unsigned JobRun::live() const {
  unsigned Live = 0;
  for (const Worker &S : F.Seats)
    Live += S.alive();
  return Live;
}

bool JobRun::spawn(unsigned W) {
  Worker &S = F.Seats[W];
  int Fds[2] = {-1, -1};
  pid_t Pid = -1;
  {
    std::lock_guard<std::mutex> Lock(support::processForkMutex());
    if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Fds) != 0)
      return false;
    uint64_t HostAsBytes = addressSpaceBytes();
    Pid = fork();
    if (Pid == 0) {
      // Only stdio and this worker's own end survive into the worker: a
      // worker holding a sibling's or another host's end would keep that
      // socket open past its owner's death or retirement.
      close(Fds[0]);
      dup2(Fds[1], WorkerFd); // a no-op when the end already is fd 3
      close_range(WorkerFd + 1, ~0U, 0);
      workerMain(F.Opts, HostAsBytes);
    }
    close(Fds[1]);
    if (Pid < 0) {
      close(Fds[0]);
      return false;
    }
  }
  S.Pid = Pid;
  S.Fd = Fds[0];
  S.KilledByUs = false;
  S.Tier = -1;
  S.Job = 0;
  S.Parser.reset();
  S.LastProgress = Clock::now();
  ++Stats.WorkerSpawns;
  ++F.Host.TotalSpawns;
  if (Track)
    Track->instant("spawn", "\"worker\":" + std::to_string(W) +
                                ",\"pid\":" + std::to_string(Pid));
  return true;
}

void JobRun::deliver(SlotRecord R) {
  uint64_t S = R.Slot;
  Done[S] = 1;
  if (Writer.isOpen() && !Writer.append(R))
    Res.CheckpointError = "journal append failed; checkpointing stopped";
  if (Req.OnSlotDone)
    Req.OnSlotDone(R);
  Slots[S] = std::move(R);
  ++Resolved;
  RespawnStreak = 0;
  RespawnWaiting = false;
}

void JobRun::killStalled(Clock::time_point Now) {
  if (!F.Opts.WorkerStallMillis)
    return;
  for (unsigned W = 0; W < F.Seats.size(); ++W) {
    Worker &S = F.Seats[W];
    if (!S.alive() || S.KilledByUs || S.Held.empty())
      continue;
    auto Quiet = std::chrono::duration_cast<std::chrono::milliseconds>(
                     Now - S.LastProgress)
                     .count();
    if (Quiet < static_cast<int64_t>(F.Opts.WorkerStallMillis))
      continue;
    kill(S.Pid, SIGKILL);
    S.KilledByUs = true;
    if (Track)
      Track->instant("stall-kill", "\"worker\":" + std::to_string(W));
  }
}

void JobRun::respawnIfShort(Clock::time_point Now) {
  // Lazy respawn with exponential backoff: only when work waits in the
  // queue and a seat is empty.
  if (Queue.empty() || live() >= Seats)
    return;
  if (!RespawnWaiting && RespawnStreak > 0 && F.Opts.RespawnBackoffMicros) {
    uint64_t Wait = F.Opts.RespawnBackoffMicros
                    << std::min<uint32_t>(RespawnStreak - 1, 32);
    Wait = std::min(Wait, RespawnBackoffCapMicros);
    RespawnReady = Now + std::chrono::microseconds(Wait);
    RespawnWaiting = true;
    ++Stats.BackoffWaits;
    Stats.BackoffMicros += Wait;
    if (Track)
      Track->instant("backoff", "\"micros\":" + std::to_string(Wait));
  }
  if (RespawnWaiting && Now < RespawnReady)
    return;
  RespawnWaiting = false;
  for (unsigned W = 0; W < F.Seats.size(); ++W)
    if (!F.Seats[W].alive()) {
      if (spawn(W)) {
        ++Stats.Respawns;
        ++RespawnStreak;
        if (Track)
          Track->instant("respawn", "\"worker\":" + std::to_string(W));
      }
      return; // one respawn per pass: storms stay paced
    }
}

void JobRun::dispatch(Clock::time_point Now) {
  // Round-robin, one slot per worker per round, so a job smaller than
  // the fleet's windows still spreads over every worker.
  for (bool Gave = true; Gave && !Queue.empty();) {
    Gave = false;
    for (Worker &S : F.Seats) {
      if (Queue.empty())
        break;
      if (!S.alive() || S.KilledByUs || S.Held.size() >= SlotsInFlight)
        continue;
      if (S.Job != F.JobSeq) {
        std::vector<uint8_t> Payload;
        Payload.push_back(Req.Timeline ? 1 : 0);
        Payload.insert(Payload.end(), Req.Spec.begin(), Req.Spec.end());
        encodeFrame(S.Out, FrameKind::Job, Payload.data(), Payload.size());
        S.Job = F.JobSeq;
      }
      // An idle worker's stall clock starts when it is handed work.
      if (S.Held.empty())
        S.LastProgress = Now;
      Assignment A = Queue.front();
      Queue.pop_front();
      encodeVarintFrame(S.Out, FrameKind::Slot, {A.Slot, A.Attempt});
      S.Held.push_back(A);
      Gave = true;
    }
  }
  for (Worker &S : F.Seats) {
    if (S.Out.empty())
      continue;
    // A failed send means the worker is gone; its end of file arrives on
    // the next poll and hands its slots back.
    (void)sendAll(S.Fd, S.Out.data(), S.Out.size());
    S.Out.clear();
  }
}

bool JobRun::readFrames(Worker &S) {
  for (;;) {
    FrameKind Kind;
    const uint8_t *Payload = nullptr;
    size_t Len = 0;
    FrameParser::Status St = S.Parser.next(Kind, Payload, Len);
    if (St == FrameParser::Status::NeedMore)
      return true;
    if (St == FrameParser::Status::Corrupt)
      return false;
    size_t Pos = 0;
    switch (Kind) {
    case FrameKind::Tier: {
      uint64_t Tier = 0;
      if (support::readVarint(Payload, Len, Pos, Tier) !=
              support::VarintError::Ok ||
          Pos != Len ||
          Tier > static_cast<uint64_t>(SandboxTier::SeccompLandlock))
        return false;
      S.Tier = static_cast<int>(Tier);
      break;
    }
    case FrameKind::TimelineChunk:
      if (!Req.Timeline ||
          !Req.Timeline->adoptTrackChunk(Payload, Len, Pos,
                                         static_cast<uint32_t>(S.Pid), "") ||
          Pos != Len)
        return false;
      ++Stats.TimelineChunks;
      break;
    case FrameKind::SlotRecord: {
      SlotRecord R;
      std::string Error;
      if (!decodeSlotRecord(Payload, Len, Pos, R, Error) || Pos != Len ||
          S.Held.empty() || R.Slot != S.Held.front().Slot)
        return false;
      S.Held.pop_front();
      S.LastProgress = Clock::now();
      deliver(std::move(R));
      break;
    }
    default: // Job and Slot frames only ever flow to workers
      return false;
    }
  }
}

JobRun::Stream JobRun::readSocket(Worker &S) {
  uint8_t Buf[64 << 10];
  for (;;) {
    ssize_t Got = recv(S.Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
    if (Got > 0) {
      Stats.BytesReceived += static_cast<uint64_t>(Got);
      S.Parser.feed(Buf, static_cast<size_t>(Got));
      if (!readFrames(S))
        return Stream::Corrupt;
      continue;
    }
    if (Got < 0 && errno == EINTR)
      continue;
    if (Got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return Stream::Open;
    // End of file, or ECONNRESET once the data a dead worker sent has
    // been read: every record it sent is in.
    return Stream::Ended;
  }
}

void JobRun::drain(unsigned W) {
  Worker &S = F.Seats[W];
  Stream St = readSocket(S);
  if (St == Stream::Open)
    return;
  if (St == Stream::Corrupt) {
    // A corrupt stream: the worker is as dead as a crashed one.
    kill(S.Pid, SIGKILL);
    S.KilledByUs = true;
  }
  handleDeath(W);
}

void JobRun::handleDeath(unsigned W) {
  Worker &S = F.Seats[W];
  int Status = 0;
  while (waitpid(S.Pid, &Status, 0) < 0 && errno == EINTR)
    ;
  close(S.Fd);
  S.Fd = -1;
  S.Pid = -1;
  std::deque<Assignment> Held;
  Held.swap(S.Held);

  bool CleanExit =
      !S.KilledByUs && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  if (Held.empty() && CleanExit)
    return; // a worker that quit between slots is no death
  ChildDeath D = classifyChildDeath(Status, S.KilledByUs);
  ++Stats.DeathsByClass[static_cast<size_t>(D.Class)];
  if (S.KilledByUs)
    ++Stats.SupervisorKills;
  if (Track)
    Track->instant("worker-death", "\"worker\":" + std::to_string(W) +
                                       ",\"class\":\"" +
                                       faultClassName(D.Class) + "\"");
  if (S.Tier < 0) {
    // Died before its Tier frame, so in its setup: no slot had started.
    Queue.insert(Queue.begin(), Held.begin(), Held.end());
    return;
  }
  if (Held.empty())
    return; // died idle: no slot was running

  // The worker runs its slots in order and every record it sent has
  // been read, so the front of its FIFO is the slot that was running.
  // The slots behind it never started: they go back uncharged.
  Assignment V = Held.front();
  Held.pop_front();
  Queue.insert(Queue.begin(), Held.begin(), Held.end());
  ++DeathsOfSlot[V.Slot];
  if (V.Attempt < MaxAttempts) {
    Queue.push_back({V.Slot, V.Attempt + 1});
    return;
  }
  SlotRecord Q;
  Q.Slot = V.Slot;
  Q.Seed = Base.FirstSeed + V.Slot;
  Q.Attempts = V.Attempt;
  Q.Quarantined = true;
  Q.Fault = D.Class;
  Q.FaultDetail = D.Detail;
  deliver(std::move(Q));
  if (DeathsOfSlot[V.Slot] >= V.Attempt)
    ++Stats.PoisonSlots;
  if (Track)
    Track->instant("quarantine", "\"slot\":" + std::to_string(V.Slot));
}

void JobRun::cancel() {
  for (Worker &S : F.Seats)
    if (S.alive())
      kill(S.Pid, SIGKILL);
  for (Worker &S : F.Seats) {
    if (!S.alive())
      continue;
    int Status = 0;
    while (waitpid(S.Pid, &Status, 0) < 0 && errno == EINTR)
      ;
    // Every record the worker sent before the kill is still in the
    // socket: journal it. A corrupt stream just ends the salvage early.
    (void)readSocket(S);
    close(S.Fd);
    S.Fd = -1;
    S.Pid = -1;
    S.Held.clear();
  }
  Stats.Cancelled = true;
  ++F.Host.CancelTeardowns;
  if (Track)
    Track->instant("cancel", "\"resolved\":" + std::to_string(Resolved));
}

bool JobRun::run() {
  openResilientCheckpoint(Base, Writer, Slots, Done, Res);
  std::vector<uint64_t> Pending;
  for (size_t S = 0; S < N; ++S)
    if (!Done[S]) {
      Pending.push_back(S);
      Queue.push_back({S, 1});
    }
  Total = Queue.size();
  bool Cancelled =
      Req.CancelFlag && Req.CancelFlag->load(std::memory_order_relaxed);
  Stats.Cancelled = Cancelled;

  if (Total && !Cancelled) {
    ++F.Host.JobsRun;
    ++F.JobSeq;
    Track = Req.Timeline ? Req.Timeline->track("pool-supervisor") : nullptr;
    Seats = static_cast<unsigned>(std::min(F.Seats.size(), Total));
    obs::TimelineScope PoolSpan =
        Track ? obs::TimelineScope(Track, "pool",
                                   "\"workers\":" + std::to_string(Seats) +
                                       ",\"slots\":" + std::to_string(Total))
              : obs::TimelineScope();
    // A warm host re-enters here with its workers alive and blocked on
    // their sockets: the first dispatch wakes them and nothing forks.
    unsigned Live = live();
    for (unsigned W = 0; W < F.Seats.size() && Live < Seats; ++W)
      if (!F.Seats[W].alive() && spawn(W))
        ++Live;
    if (Live == 0) {
      // Cannot fork at all right now: the in-process rung reopens the
      // journal.
      Writer.close();
      return false;
    }

    std::vector<struct pollfd> PFDs;
    std::vector<unsigned> PfdWorker;
    while (Resolved < Total) {
      if (Req.CancelFlag && Req.CancelFlag->load(std::memory_order_relaxed)) {
        cancel();
        break;
      }
      Clock::time_point Now = Clock::now();
      killStalled(Now);
      respawnIfShort(Now);
      dispatch(Now);

      // Poll every live socket; the timeout is short enough to notice
      // stalls, backoff expiries and cancellation.
      PFDs.clear();
      PfdWorker.clear();
      for (unsigned W = 0; W < F.Seats.size(); ++W)
        if (F.Seats[W].alive()) {
          PFDs.push_back({F.Seats[W].Fd, POLLIN, 0});
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
          std::this_thread::sleep_for(
              std::chrono::milliseconds(std::min(TimeoutMs, 10)));
        continue;
      }
      int PR = poll(PFDs.data(), static_cast<nfds_t>(PFDs.size()), TimeoutMs);
      if (PR < 0 && errno != EINTR)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      for (size_t P = 0; P < PFDs.size(); ++P)
        if (PFDs[P].revents)
          drain(PfdWorker[P]);
    }
    // A worker killed just as its last record arrived is dying: count
    // its death here, not against the next job.
    for (unsigned W = 0; W < F.Seats.size(); ++W)
      if (F.Seats[W].alive() && F.Seats[W].KilledByUs)
        handleDeath(W);

    // Weakest tier any worker reported (a worker that died before its
    // setup finished does not weaken the floor).
    int MinTier = -1;
    for (const Worker &S : F.Seats)
      if (S.Tier >= 0 && (MinTier < 0 || S.Tier < MinTier))
        MinTier = S.Tier;
    if (MinTier >= 0)
      Stats.Tier = static_cast<SandboxTier>(MinTier);
  }

  Writer.close();
  for (size_t S = 0; S < N; ++S)
    if (!Done[S])
      ++Res.UnfinishedSlots;
  if (Res.UnfinishedSlots == 0) {
    mergeSlotRecords(Slots, Res);
  } else {
    std::vector<SlotRecord> Finished;
    Finished.reserve(N - static_cast<size_t>(Res.UnfinishedSlots));
    for (size_t S = 0; S < N; ++S)
      if (Done[S])
        Finished.push_back(Slots[S]);
    mergeSlotRecords(Finished, Res);
  }
  for (uint64_t S : Pending)
    if (Done[S] && Slots[S].Attempts)
      Res.Retries += Slots[S].Attempts - 1;
  return true;
}

void exportInstruments(obs::Registry &Reg, const PoolStats &Stats) {
  obs::inc(Reg.counter("grs_pool_worker_spawns_total"), Stats.WorkerSpawns);
  obs::inc(Reg.counter("grs_pool_respawns_total"), Stats.Respawns);
  obs::inc(Reg.counter("grs_pool_supervisor_kills_total"),
           Stats.SupervisorKills);
  obs::inc(Reg.counter("grs_pool_poison_slots_total"), Stats.PoisonSlots);
  obs::inc(Reg.counter("grs_pool_received_bytes_total"), Stats.BytesReceived);
  obs::inc(Reg.counter("grs_pool_timeline_chunks_total"),
           Stats.TimelineChunks);
  obs::inc(Reg.counter("grs_pool_backoff_waits_total"), Stats.BackoffWaits);
  obs::inc(Reg.counter("grs_pool_backoff_micros_total"), Stats.BackoffMicros);
  for (size_t C = 0; C < NumFaultClasses; ++C)
    if (Stats.DeathsByClass[C])
      obs::inc(Reg.counter(
                   "grs_pool_worker_deaths_total",
                   {{"class", faultClassName(static_cast<FaultClass>(C))}}),
               Stats.DeathsByClass[C]);
  obs::set(Reg.gauge("grs_isolation_sandbox_tier"),
           static_cast<double>(Stats.Tier));
  obs::set(Reg.gauge("grs_pool_fork_free"), Stats.ForkFree ? 1.0 : 0.0);
}

} // namespace

//===----------------------------------------------------------------------===//
// PoolHost
//===----------------------------------------------------------------------===//

struct PoolHost::Impl : Fleet {};

PoolHost::PoolHost(PoolHostOptions Opts) : M(std::make_unique<Impl>()) {
  M->Opts = std::move(Opts);
  unsigned W = M->Opts.Workers ? M->Opts.Workers
                               : std::thread::hardware_concurrency();
  M->Seats.resize(W ? W : 1);
}

PoolHost::~PoolHost() { shutdown(); }

void PoolHost::shutdown() { M->retire(); }

const PoolHostStats &PoolHost::hostStats() const { return M->Host; }

PoolResult PoolHost::run(const PoolRunRequest &Req) {
  PoolResult Result;
  // Resolve the recipe parent-side: the checkpoint meta and the
  // in-process rung need it. Workers resolve the same bytes on their
  // side of the fork.
  ResilientOptions Base;
  if (!M->Opts.Resolve ||
      !M->Opts.Resolve(Req.Spec.data(), Req.Spec.size(), Base)) {
    Result.Res.CheckpointError = "job spec resolution failed";
    return Result;
  }
  Base.Metrics = Req.Metrics;
  Base.Timeline = Req.Timeline;
  Base.CheckpointPath = Req.CheckpointPath;
  Base.Resume = Req.Resume;
  Base.CancelFlag = Req.CancelFlag;
  Base.OnSlotDone = Req.OnSlotDone;

  if (M->Opts.ForceForkFree || !JobRun(*M, Req, Base, Result).run()) {
    // The in-process rung: same slot code, same merge, same journal.
    // Process-lethal injected faults downgrade to foreign exceptions
    // here (inject::inSandbox), so the host survives with weaker
    // containment.
    Result.Res = resilient(Base);
    Result.Stats.ForkFree = true;
    Result.Stats.Cancelled = Result.Res.UnfinishedSlots != 0;
  }
  if (Req.Metrics)
    exportInstruments(*Req.Metrics, Result.Stats);
  return Result;
}

//===----------------------------------------------------------------------===//
// pooled(): the one-shot wrapper
//===----------------------------------------------------------------------===//

PoolResult sweep::pooled(const PoolOptions &Opts) {
  PoolHostOptions H = Opts.Host;
  H.Workers = Opts.Base.Threads;
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
