//===- tests/PoolTest.cpp - Persistent fork-server worker pool -------------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// The containment battery for the POOLED robustness layer (sweep::pooled).
// Workers outlive their slots, assignments flow through a shared-memory
// work ring, and results come back through per-worker shm arenas with a
// commit cursor. This file pins:
//
//  * PARITY — fault-free sweeps agree bit-for-bit across {pipeline::sweep,
//    resilient, pooled serial, pooled parallel} and every degradation rung
//    (ForceForkFree -> in-process resilient, ForceNoFutex -> sleep-poll);
//  * TRANSPORT — the shm byte ring round-trips frames across wraparound,
//    and the frame parser salvages the intact prefix of an interrupted
//    stream while discarding the partial tail (crash-mid-commit);
//  * CONTAINMENT — worker deaths classify by cause, never lose a record,
//    and never re-execute a slot whose record was delivered; a slot that
//    kills every worker it touches is quarantined on the unified attempt
//    budget with the same seed set and attempt counts the fork-free
//    downgrade records, and is counted as a poison slot;
//    PoisonWorkerDeaths=K quarantines early; a stalled worker is killed;
//  * BACKOFF — a chronic crash storm stretches respawns by the documented
//    exponential trajectory instead of fork-bombing the parent;
//  * SANDBOX/CGROUP — the opt-in seccomp/landlock tiers and cgroup memory
//    accounting apply where the kernel offers them and degrade silently
//    (with honest PoolStats) where it does not; RLIMIT_AS is headroom
//    above the host's size, so a large host's workers can still allocate;
//  * RESUME — journals remain shared with the other executors in BOTH
//    directions;
//  * TRACING — a traced sweep equals its untraced twin on every executor,
//    journal bytes included, and the pooled export carries stitched
//    worker spans.
//
//===----------------------------------------------------------------------===//

#include "corpus/Patterns.h"
#include "inject/Fault.h"
#include "obs/Metrics.h"
#include "obs/Timeline.h"
#include "rt/Instr.h"
#include "rt/Sync.h"
#include "support/Shm.h"
#include "sweep/Adaptive.h"
#include "sweep/Cgroup.h"
#include "sweep/Pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <thread>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

using namespace grs;

namespace {

/// Schedule-dependent racy body (the ResilienceTest workhorse): sweeps
/// over it have real verdict structure for the parity checks to bite on.
void racyBody() {
  auto X = std::make_shared<rt::Shared<int>>("x", 0);
  rt::Runtime &RT = rt::Runtime::current();
  RT.go("writer", [X] { X->store(1); });
  X->store(2);
}

/// Where allocatingRacyBody publishes its block, so that the allocation
/// cannot be optimized away.
char *volatile AllocationSink = nullptr;

/// racyBody after an 8 MiB allocation, which glibc serves with a fresh
/// mapping: the body needs address space its worker did not inherit.
void allocatingRacyBody() {
  std::vector<char> Block(8u << 20, 1);
  AllocationSink = Block.data();
  racyBody();
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "grs-pool-" + Name;
}

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path,
                    const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

sweep::PoolOptions baseOptions(sweep::Runner Body, uint64_t NumSeeds) {
  sweep::PoolOptions PO;
  PO.Base.FirstSeed = 1;
  PO.Base.NumSeeds = NumSeeds;
  PO.Base.Body = std::move(Body);
  PO.Base.MaxAttempts = 2;
  PO.Base.RetryBackoffMicros = 0;
  PO.Base.Threads = 2;
  // No backoff by default: containment tests want the deaths, not the
  // waits. The backoff test opts back in.
  PO.Host.RespawnBackoffMicros = 0;
  return PO;
}

/// A hand-built lethal plan: exact kinds and chronicity per seed, no RNG.
/// Chronic seeds 3 (AbortCall), 6 (WildWrite), 9 (StackOverflow), 12
/// (HeapExhaustion); transient seed 15 (AbortCall, dies once).
inject::FaultPlan lethalPlan() {
  inject::FaultPlan Plan;
  auto Chronic = [](inject::FaultKind Kind) {
    inject::FaultSpec S;
    S.Kind = Kind;
    S.LethalAttempts = UINT32_MAX;
    return S;
  };
  Plan.BySeed[3] = Chronic(inject::FaultKind::AbortCall);
  Plan.BySeed[6] = Chronic(inject::FaultKind::WildWrite);
  Plan.BySeed[9] = Chronic(inject::FaultKind::StackOverflow);
  Plan.BySeed[12] = Chronic(inject::FaultKind::HeapExhaustion);
  inject::FaultSpec Transient;
  Transient.Kind = inject::FaultKind::AbortCall;
  Transient.LethalAttempts = 1;
  Plan.BySeed[15] = Transient;
  return Plan;
}

sweep::PoolOptions lethalOptions(const inject::FaultPlan &Plan) {
  sweep::PoolOptions PO =
      baseOptions(inject::instrumentedRunner(racyBody, Plan), 20);
  // Generous address-space headroom (above the gtest parent's size at
  // fork): the worker's own working set fits under it with room to
  // spare, so only the HeapExhaustion saboteur's deliberate allocation
  // storm hits it.
  PO.Host.RlimitAsBytes = 768ull << 20;
  return PO;
}

TEST(Pool, PooledIsAvailableOnThisPlatform) {
  // The pool guarantees below are only meaningful where fork + shared
  // memory actually exist; the degradation rungs are covered separately.
  EXPECT_TRUE(sweep::pooledAvailable());
  EXPECT_TRUE(support::shmAvailable());
}

//===----------------------------------------------------------------------===//
// Transport: shm byte ring + frame parser
//===----------------------------------------------------------------------===//

TEST(ShmRing, RoundTripsAcrossWraparound) {
  // A 64-byte ring with alternating produce/drain: the third produce
  // must split across the physical end of the buffer and come back out
  // byte-identical.
  support::ShmRegion Region;
  ASSERT_TRUE(Region.map(sizeof(support::ShmRingCursors) + 64));
  auto *C = new (Region.data()) support::ShmRingCursors();
  uint8_t *Data = Region.data() + sizeof(support::ShmRingCursors);
  std::atomic<uint32_t> Stop{0};

  std::vector<uint8_t> Sent, Got;
  for (uint8_t Round = 0; Round < 8; ++Round) {
    std::vector<uint8_t> Chunk(40);
    for (size_t I = 0; I < Chunk.size(); ++I)
      Chunk[I] = static_cast<uint8_t>(Round * 41 + I);
    Sent.insert(Sent.end(), Chunk.begin(), Chunk.end());
    ASSERT_TRUE(support::shmRingProduce(*C, Data, 64, Chunk.data(),
                                        Chunk.size(), &Stop,
                                        /*UseFutex=*/false,
                                        /*Notify=*/nullptr,
                                        /*NotifyArg=*/nullptr));
    EXPECT_GT(support::shmRingDrain(*C, Data, 64, Got, /*UseFutex=*/false),
              0u);
  }
  EXPECT_EQ(Got, Sent);
}

TEST(ShmRing, ProducerLargerThanCapacityNeedsAConsumer) {
  // A single produce bigger than the whole ring streams through in
  // pieces — the commit cursor advances chunk-wise while a concurrent
  // consumer drains.
  support::ShmRegion Region;
  ASSERT_TRUE(Region.map(sizeof(support::ShmRingCursors) + 32));
  auto *C = new (Region.data()) support::ShmRingCursors();
  uint8_t *Data = Region.data() + sizeof(support::ShmRingCursors);
  std::atomic<uint32_t> Stop{0};

  std::vector<uint8_t> Sent(300);
  for (size_t I = 0; I < Sent.size(); ++I)
    Sent[I] = static_cast<uint8_t>(I * 7);
  std::vector<uint8_t> Got;
  std::thread Consumer([&] {
    while (Got.size() < Sent.size())
      support::shmRingDrain(*C, Data, 32, Got, /*UseFutex=*/false);
  });
  EXPECT_TRUE(support::shmRingProduce(*C, Data, 32, Sent.data(), Sent.size(),
                                      &Stop, /*UseFutex=*/false,
                                      /*Notify=*/nullptr,
                                      /*NotifyArg=*/nullptr));
  Consumer.join();
  EXPECT_EQ(Got, Sent);
}

TEST(FrameParser, ReassemblesFramesFedByteByByte) {
  sweep::SlotRecord R;
  R.Slot = 7;
  R.Seed = 8;
  R.Attempts = 1;
  std::vector<uint8_t> Payload;
  sweep::encodeSlotRecord(Payload, R);
  std::vector<uint8_t> Stream;
  sweep::encodeFrame(Stream, sweep::FrameKind::SlotRecord, Payload.data(),
                     Payload.size());
  sweep::encodeFrame(Stream, sweep::FrameKind::TimelineChunk, Payload.data(),
                     3);

  sweep::FrameParser P;
  size_t Frames = 0;
  for (uint8_t Byte : Stream) {
    P.feed(&Byte, 1);
    sweep::FrameKind Kind;
    const uint8_t *Data;
    size_t Size;
    while (P.next(Kind, Data, Size) == sweep::FrameParser::Status::Frame) {
      if (Frames == 0) {
        EXPECT_EQ(Kind, sweep::FrameKind::SlotRecord);
        sweep::SlotRecord Decoded;
        size_t Pos = 0;
        std::string Error;
        ASSERT_TRUE(sweep::decodeSlotRecord(Data, Size, Pos, Decoded, Error))
            << Error;
        EXPECT_EQ(Decoded, R);
      } else {
        EXPECT_EQ(Kind, sweep::FrameKind::TimelineChunk);
        EXPECT_EQ(Size, 3u);
      }
      ++Frames;
    }
  }
  EXPECT_EQ(Frames, 2u);
  EXPECT_EQ(P.buffered(), 0u);
}

TEST(FrameParser, PartialTailIsHeldNotDelivered) {
  // The crash-mid-commit shape: a complete frame followed by a torn one.
  // The parser must deliver the complete frame and then report NeedMore —
  // the salvage path keeps the prefix and the torn tail evaporates with
  // the parser.
  std::vector<uint8_t> Payload = {1, 2, 3, 4, 5};
  std::vector<uint8_t> Stream;
  sweep::encodeFrame(Stream, sweep::FrameKind::TimelineChunk, Payload.data(),
                     Payload.size());
  size_t Intact = Stream.size();
  sweep::encodeFrame(Stream, sweep::FrameKind::SlotRecord, Payload.data(),
                     Payload.size());
  Stream.resize(Intact + 3); // torn mid-frame

  sweep::FrameParser P;
  P.feed(Stream.data(), Stream.size());
  sweep::FrameKind Kind;
  const uint8_t *Data;
  size_t Size;
  ASSERT_EQ(P.next(Kind, Data, Size), sweep::FrameParser::Status::Frame);
  EXPECT_EQ(Kind, sweep::FrameKind::TimelineChunk);
  EXPECT_EQ(P.next(Kind, Data, Size), sweep::FrameParser::Status::NeedMore);
}

TEST(FrameParser, GarbageKindIsCorrupt) {
  uint8_t Junk[] = {0x7f, 0x01, 0x00}; // kind 127 is no FrameKind
  sweep::FrameParser P;
  P.feed(Junk, sizeof(Junk));
  sweep::FrameKind Kind;
  const uint8_t *Data;
  size_t Size;
  EXPECT_EQ(P.next(Kind, Data, Size), sweep::FrameParser::Status::Corrupt);
}

//===----------------------------------------------------------------------===//
// Parity: fault-free sweeps agree across the pool and every rung
//===----------------------------------------------------------------------===//

TEST(Pool, FaultFreeParityAcrossExecutorsAndRungs) {
  pipeline::SweepOptions S;
  S.FirstSeed = 1;
  S.NumSeeds = 32;
  pipeline::SweepResult Uniform = pipeline::sweep(S, racyBody);
  ASSERT_GT(Uniform.SeedsWithRaces, 0u) << "body must actually race";

  sweep::PoolOptions PO = baseOptions(corpus::hostBody(racyBody), 32);
  sweep::ResilientResult InProcess = sweep::resilient(PO.Base);
  EXPECT_EQ(InProcess.Sweep, Uniform);

  sweep::PoolOptions Serial = PO;
  Serial.Base.Threads = 1;
  sweep::PoolResult SR = sweep::pooled(Serial);
  EXPECT_EQ(SR.Res, InProcess) << "single-worker pool diverged";
  EXPECT_FALSE(SR.Stats.ForkFree);
  EXPECT_EQ(SR.Stats.WorkerSpawns, 1u);
  EXPECT_EQ(SR.Stats.deaths(), 0u) << "a fault-free sweep kills no worker";
  EXPECT_EQ(SR.Stats.Respawns, 0u);
  EXPECT_GT(SR.Stats.ArenaBytesReceived, 0u);

  sweep::PoolOptions Parallel = PO;
  Parallel.Base.Threads = 4;
  sweep::PoolResult PR = sweep::pooled(Parallel);
  EXPECT_EQ(PR.Res, InProcess) << "multi-worker pool diverged";
  EXPECT_EQ(PR.Stats.WorkerSpawns, 4u);

  sweep::PoolOptions NoFutex = PO;
  NoFutex.Host.ForceNoFutex = true;
  sweep::PoolResult NF = sweep::pooled(NoFutex);
  EXPECT_EQ(NF.Res, InProcess) << "sleep-poll rung diverged";
  EXPECT_FALSE(NF.Stats.FutexSignalled);

  sweep::PoolOptions ForkFree = PO;
  ForkFree.Host.ForceForkFree = true;
  sweep::PoolResult FF = sweep::pooled(ForkFree);
  EXPECT_EQ(FF.Res, InProcess) << "fork-free rung diverged";
  EXPECT_TRUE(FF.Stats.ForkFree);
  EXPECT_EQ(FF.Stats.WorkerSpawns, 0u);
}

TEST(Pool, TinyArenaWrapsAndStaysBitIdentical) {
  // An arena much smaller than the result stream: every worker's ring
  // wraps many times and large frames stream through in pieces, yet the
  // merged result is still byte-for-byte the in-process one.
  sweep::PoolOptions PO = baseOptions(corpus::hostBody(racyBody), 24);
  sweep::ResilientResult InProcess = sweep::resilient(PO.Base);
  PO.Host.ArenaBytes = 512;
  sweep::PoolResult R = sweep::pooled(PO);
  EXPECT_EQ(R.Res, InProcess);
  EXPECT_GT(R.Stats.ArenaBytesReceived, 512u) << "the ring must have wrapped";
}

//===----------------------------------------------------------------------===//
// Flight-recorder stitching: pooled and fork-free recordings agree
//===----------------------------------------------------------------------===//

/// All span-begin (name, args) pairs named "slot" or "attempt" across
/// \p Tl's tracks, as a multiset — the executor-independent skeleton of
/// a recording (worker lifecycle spans legitimately differ; per-slot
/// work must not).
std::multiset<std::pair<std::string, std::string>>
slotSpans(const obs::Timeline &Tl) {
  std::multiset<std::pair<std::string, std::string>> Spans;
  for (size_t I = 0; I < Tl.numTracks(); ++I) {
    const obs::TimelineTrack &T = Tl.trackAt(I);
    for (size_t E = 0; E < T.size(); ++E) {
      const obs::TimelineEvent &Ev = T.event(E);
      if (Ev.Kind != obs::TimelineEventKind::SpanBegin)
        continue;
      const std::string &Name = T.str(Ev.NameId);
      if (Name == "slot" || Name == "attempt")
        Spans.emplace(Name, T.str(Ev.ArgsId));
    }
  }
  return Spans;
}

TEST(Pool, StitchedTimelineMatchesForkFreeSlotSpans) {
  sweep::PoolOptions PO = baseOptions(corpus::hostBody(racyBody), 24);

  obs::Timeline Pooled(/*Enabled=*/true);
  PO.Base.Timeline = &Pooled;
  sweep::PoolResult R = sweep::pooled(PO);
  ASSERT_FALSE(R.Stats.ForkFree);
  EXPECT_GT(R.Stats.TimelineChunks, 0u)
      << "workers must forward their tracks through the arena";

  sweep::PoolOptions FFO = PO;
  FFO.Host.ForceForkFree = true;
  obs::Timeline ForkFree(/*Enabled=*/true);
  FFO.Base.Timeline = &ForkFree;
  sweep::PoolResult FFR = sweep::pooled(FFO);
  ASSERT_TRUE(FFR.Stats.ForkFree);
  EXPECT_EQ(FFR.Stats.TimelineChunks, 0u);

  EXPECT_EQ(R.Res, FFR.Res);
  auto PooledSpans = slotSpans(Pooled);
  EXPECT_EQ(PooledSpans.size(), 2u * PO.Base.NumSeeds)
      << "one slot and one attempt span per fault-free seed";
  EXPECT_EQ(PooledSpans, slotSpans(ForkFree));

  // The pooled recording carries the cross-process attribution: worker
  // tracks stitched under real worker pids.
  bool SawWorkerTrack = false;
  for (size_t I = 0; I < Pooled.numTracks(); ++I) {
    const obs::TimelineTrack &T = Pooled.trackAt(I);
    if (T.name() == "worker") {
      EXPECT_NE(T.pid(), 0u) << "stitched tracks carry the worker pid";
      SawWorkerTrack = true;
    }
  }
  EXPECT_TRUE(SawWorkerTrack);
}

/// Structural soundness of an exported Chrome trace: the envelope, a known
/// phase on every event, and begins that balance ends (the RAII scopes
/// guarantee it at record time; this checks the export).
bool chromeTraceIsSound(const std::string &Json) {
  if (Json.rfind("{\"traceEvents\":[", 0) != 0)
    return false;
  size_t Last = Json.find_last_not_of(" \n\r\t");
  if (Last == std::string::npos || Json[Last] != '}')
    return false;
  size_t Begins = 0, Ends = 0;
  for (size_t Pos = 0; (Pos = Json.find("\"ph\":\"", Pos)) != std::string::npos;
       Pos += 6) {
    char Ph = Pos + 6 < Json.size() ? Json[Pos + 6] : '\0';
    Begins += Ph == 'B';
    Ends += Ph == 'E';
    if (Ph != 'B' && Ph != 'E' && Ph != 'i' && Ph != 'C' && Ph != 'M')
      return false;
  }
  return Begins == Ends && Begins > 0;
}

/// A race that manifests on some schedules only: the publisher's write is
/// ordered before main's read exactly when main takes the lock after the
/// publisher released it. A schedule that moves changes the verdict.
void flakyBody() {
  rt::Shared<int> X("x");
  rt::Mutex Mu("mu");
  rt::WaitGroup Wg("wg");
  Wg.add(1);
  rt::go("publisher", [&] {
    X = 7;
    { rt::LockGuard<rt::Mutex> G(Mu); }
    Wg.done();
  });
  { rt::LockGuard<rt::Mutex> G(Mu); }
  int Seen = X;
  (void)Seen;
  Wg.wait();
}

// The flight recorder's contract: a traced sweep is indistinguishable,
// result-wise, from the same sweep untraced, on every executor.
TEST(Pool, TracedSweepsMatchUntracedOnEveryExecutor) {
  constexpr uint64_t Seeds = 96;
  pipeline::SweepOptions SO;
  SO.NumSeeds = Seeds;
  pipeline::SweepResult Plain = pipeline::sweep(SO, flakyBody);
  ASSERT_GT(Plain.SeedsWithRaces, 0u);
  ASSERT_LT(Plain.SeedsWithRaces, Plain.SeedsRun);
  {
    obs::Timeline Tl;
    pipeline::SweepOptions Traced = SO;
    Traced.Timeline = &Tl;
    EXPECT_EQ(pipeline::sweep(Traced, flakyBody), Plain) << "pipeline::sweep";
  }

  // The parallel sweep (one attempt a seed) also equals the serial one.
  {
    sweep::ResilientOptions PO;
    PO.NumSeeds = Seeds;
    PO.Threads = 4;
    PO.MaxAttempts = 1;
    PO.Body = corpus::hostBody(flakyBody);
    obs::Timeline Tl;
    sweep::ResilientOptions Traced = PO;
    Traced.Timeline = &Tl;
    for (const sweep::ResilientOptions &O : {PO, Traced}) {
      sweep::ResilientResult R = sweep::resilient(O);
      EXPECT_EQ(R.Sweep, Plain) << "parallel, traced=" << (O.Timeline != nullptr);
      EXPECT_TRUE(R.Quarantined.empty());
    }
  }

  // The adaptive planner must not see the recorder.
  {
    sweep::AdaptiveOptions AO;
    AO.NumRuns = Seeds;
    AO.Threads = 2;
    AO.Body = corpus::hostBody(flakyBody);
    sweep::AdaptiveResult PlainA = sweep::adaptive(AO);
    obs::Timeline Tl;
    sweep::AdaptiveOptions Traced = AO;
    Traced.Timeline = &Tl;
    EXPECT_EQ(sweep::adaptive(Traced), PlainA) << "adaptive";
  }

  sweep::ResilientOptions RO;
  RO.NumSeeds = Seeds;
  RO.Threads = 4;
  RO.Body = corpus::hostBody(flakyBody);
  sweep::ResilientResult PlainR = sweep::resilient(RO);
  {
    obs::Timeline Tl;
    sweep::ResilientOptions Traced = RO;
    Traced.Timeline = &Tl;
    EXPECT_EQ(sweep::resilient(Traced), PlainR) << "resilient";
  }

  sweep::PoolOptions PO;
  PO.Base = RO;
  sweep::PoolResult PlainPool = sweep::pooled(PO);
  EXPECT_EQ(PlainPool.Res, PlainR) << "pooled vs resilient";
  obs::Timeline PoolTl;
  sweep::PoolOptions TracedPO = PO;
  TracedPO.Base.Timeline = &PoolTl;
  EXPECT_EQ(sweep::pooled(TracedPO).Res, PlainPool.Res) << "pooled";

  // Tracing does not change the journal's bytes. Only a single worker
  // appends in a deterministic order, so compare with one.
  std::string PlainJournal = tempPath("untraced.ckpt");
  std::string TracedJournal = tempPath("traced.ckpt");
  std::remove(PlainJournal.c_str());
  std::remove(TracedJournal.c_str());
  sweep::PoolOptions SerialPlain = PO;
  SerialPlain.Base.Threads = 1;
  SerialPlain.Base.CheckpointPath = PlainJournal;
  sweep::pooled(SerialPlain);
  obs::Timeline JournalTl;
  sweep::PoolOptions SerialTraced = SerialPlain;
  SerialTraced.Base.CheckpointPath = TracedJournal;
  SerialTraced.Base.Timeline = &JournalTl;
  sweep::pooled(SerialTraced);
  std::vector<uint8_t> PlainBytes = readFileBytes(PlainJournal);
  EXPECT_FALSE(PlainBytes.empty());
  EXPECT_EQ(readFileBytes(TracedJournal), PlainBytes);
  std::remove(PlainJournal.c_str());
  std::remove(TracedJournal.c_str());

  // The pooled export is sound and carries stitched worker spans under a
  // real pid.
  EXPECT_TRUE(chromeTraceIsSound(PoolTl.chromeTraceJson()));
  uint64_t WorkerEvents = 0;
  for (size_t I = 0; I < PoolTl.numTracks(); ++I)
    if (PoolTl.trackAt(I).pid() != 0)
      WorkerEvents += PoolTl.trackAt(I).size();
  EXPECT_GT(WorkerEvents, 0u);
}

//===----------------------------------------------------------------------===//
// Lethal faults: classification, poison containment, salvage
//===----------------------------------------------------------------------===//

TEST(Pool, LethalDeathsClassifiedAndContained) {
  inject::FaultPlan Plan = lethalPlan();
  sweep::PoolOptions PO = lethalOptions(Plan);
  std::string Journal = tempPath("lethal.ckpt");
  std::remove(Journal.c_str());
  PO.Base.CheckpointPath = Journal;
  sweep::PoolResult R = sweep::pooled(PO);
  ASSERT_TRUE(R.Res.CheckpointError.empty()) << R.Res.CheckpointError;

  // Chronic crashers quarantine with their documented class (shared
  // classifyChildDeath taxonomy); the transient one completes on a
  // respawned worker and is NOT quarantined.
  std::map<uint64_t, sweep::FaultClass> ExpectedClass = {
      {3, sweep::FaultClass::Signal},
      {6, sweep::FaultClass::Signal},
      {9, sweep::FaultClass::Signal},
      {12, sweep::FaultClass::OomKill},
  };
  ASSERT_EQ(R.Res.Quarantined.size(), ExpectedClass.size());
  for (const sweep::SlotRecord &Q : R.Res.Quarantined) {
    ASSERT_TRUE(ExpectedClass.count(Q.Seed)) << "seed " << Q.Seed;
    EXPECT_EQ(Q.Fault, ExpectedClass[Q.Seed]) << "seed " << Q.Seed;
    EXPECT_EQ(Q.Attempts, PO.Base.MaxAttempts)
        << "chronic faults must consume the whole attempt budget";
    EXPECT_FALSE(Q.FaultDetail.empty());
  }
  EXPECT_EQ(
      R.Stats.DeathsByClass[static_cast<size_t>(sweep::FaultClass::Signal)],
      3u * PO.Base.MaxAttempts + 1 /* the transient's single death */);
  EXPECT_EQ(
      R.Stats.DeathsByClass[static_cast<size_t>(sweep::FaultClass::OomKill)],
      1u * PO.Base.MaxAttempts);
  // Every charged attempt of every chronic slot ended in a worker death:
  // all four count as poison slots. The transient completed, so not it.
  EXPECT_EQ(R.Stats.PoisonSlots, 4u);
  EXPECT_GT(R.Stats.Respawns, 0u);
  EXPECT_LE(R.Stats.Respawns, R.Stats.deaths());

  // Containment: every slot the plan did not touch is bit-identical to
  // the fault-free sweep's record — a worker death never loses a record
  // a sibling (or the victim itself, pre-death) committed to its arena.
  sweep::PoolOptions Clean = PO;
  Clean.Base.Body = corpus::hostBody(racyBody);
  std::string CleanJournal = tempPath("lethal-clean.ckpt");
  std::remove(CleanJournal.c_str());
  Clean.Base.CheckpointPath = CleanJournal;
  sweep::PoolResult CleanR = sweep::pooled(Clean);
  ASSERT_TRUE(CleanR.Res.Quarantined.empty());

  sweep::CheckpointLoad Faulted, CleanLoad;
  std::string Error;
  ASSERT_TRUE(sweep::loadCheckpoint(Journal, Faulted, Error)) << Error;
  ASSERT_TRUE(sweep::loadCheckpoint(CleanJournal, CleanLoad, Error)) << Error;
  ASSERT_EQ(Faulted.Records.size(), PO.Base.NumSeeds)
      << "no slot record may be lost to a worker death";
  std::map<uint64_t, sweep::SlotRecord> BySlot;
  for (const sweep::SlotRecord &Rec : Faulted.Records)
    BySlot[Rec.Slot] = Rec;
  for (const sweep::SlotRecord &CleanRec : CleanLoad.Records) {
    ASSERT_TRUE(BySlot.count(CleanRec.Slot));
    const sweep::SlotRecord &Rec = BySlot[CleanRec.Slot];
    if (!Plan.faulted(CleanRec.Seed)) {
      EXPECT_EQ(Rec, CleanRec) << "non-faulted slot " << CleanRec.Slot;
    } else if (CleanRec.Seed == 15) {
      EXPECT_FALSE(Rec.Quarantined);
      EXPECT_EQ(Rec.Attempts, 2u);
      EXPECT_EQ(Rec.RaceCount, CleanRec.RaceCount);
      EXPECT_EQ(Rec.Reports, CleanRec.Reports);
    }
  }
  std::remove(Journal.c_str());
  std::remove(CleanJournal.c_str());
}

/// A fleet-sized pooled sweep: 100 slots on 4 workers, 3 attempts each.
sweep::PoolOptions fleetOptions(sweep::Runner Body) {
  sweep::PoolOptions PO = baseOptions(std::move(Body), 100);
  PO.Base.Threads = 4;
  PO.Base.MaxAttempts = 3;
  return PO;
}

TEST(Pool, FleetSweepParityAndWarmRunsForkNothing) {
  sweep::PoolOptions PO = fleetOptions(corpus::hostBody(racyBody));
  sweep::ResilientResult InProcess = sweep::resilient(PO.Base);
  EXPECT_EQ(sweep::pooled(PO).Res, InProcess) << "multi-worker pool diverged";
  sweep::PoolOptions Serial = PO;
  Serial.Base.Threads = 1;
  EXPECT_EQ(sweep::pooled(Serial).Res, InProcess)
      << "single-worker pool diverged";

  // A warm PoolHost (one that already served the same spec) runs it again
  // on the workers it forked for the first run.
  sweep::PoolHostOptions HO;
  HO.Workers = PO.Base.Threads;
  HO.Resolve = [Base = PO.Base](const uint8_t *, size_t,
                                sweep::ResilientOptions &Out) {
    Out = Base;
    return true;
  };
  sweep::PoolHost Host(std::move(HO));
  sweep::PoolRunRequest Job;
  EXPECT_EQ(Host.run(Job).Res, InProcess) << "first host run diverged";
  for (int Rep = 0; Rep < 3; ++Rep) {
    sweep::PoolResult Warm = Host.run(Job);
    EXPECT_EQ(Warm.Res, InProcess) << "warm run " << Rep << " diverged";
    EXPECT_EQ(Warm.Stats.WorkerSpawns, 0u) << "warm run " << Rep << " forked";
  }
  Host.shutdown();
}

// A job for which not one worker can be forked runs in-process, and leaves
// nothing published behind: the next job's workers claim only that job's
// own entries. pipe() fails for job A here because every descriptor below
// a lowered RLIMIT_NOFILE is held.
TEST(Pool, NoForkFallbackLeavesNothingForTheNextJob) {
  sweep::ResilientOptions A = baseOptions(corpus::hostBody(racyBody), 24).Base;
  sweep::ResilientOptions B = A;
  B.FirstSeed = 5000;
  B.Body = corpus::hostBody([] {
    rt::Shared<int> X("x", 0);
    X.store(1);
  });
  sweep::PoolHostOptions HO;
  HO.Workers = 2;
  HO.Resolve = [A, B](const uint8_t *Spec, size_t Len,
                      sweep::ResilientOptions &Out) {
    Out = Len && Spec[0] == 'B' ? B : A;
    return true;
  };
  sweep::PoolHost Host(std::move(HO));
  sweep::PoolRunRequest JobA, JobB;
  JobA.Spec = {'A'};
  JobB.Spec = {'B'};

  struct rlimit Saved = {};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &Saved), 0);
  struct rlimit Low = Saved;
  Low.rlim_cur = std::min<rlim_t>(Saved.rlim_cur, 256);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &Low), 0);
  std::vector<int> Held;
  for (int Fd; (Fd = open("/dev/null", O_RDONLY)) >= 0;)
    Held.push_back(Fd);
  int OpenErrno = errno;
  sweep::PoolResult RA = Host.run(JobA);
  for (int Fd : Held)
    close(Fd);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &Saved), 0);
  ASSERT_EQ(OpenErrno, EMFILE);

  EXPECT_TRUE(RA.Stats.ForkFree);
  EXPECT_EQ(RA.Res, sweep::resilient(A));
  sweep::PoolResult RB = Host.run(JobB);
  EXPECT_FALSE(RB.Stats.ForkFree);
  sweep::ResilientResult WantB = sweep::resilient(B);
  EXPECT_EQ(WantB.Sweep.SeedsWithRaces, 0u);
  EXPECT_EQ(RB.Res.Sweep.SeedsWithRaces, 0u) << "job A's records leaked";
  EXPECT_TRUE(RB.Res.Sweep.Findings.empty()) << "job A's findings leaked";
  EXPECT_EQ(RB.Res, WantB);
  Host.shutdown();
}

// Containment at a fleet's lethal fault rates: with only process-lethal
// kinds planned (equal weights), no slot the plan left alone loses or
// changes its record, and at 5% transient crashers respawn and complete,
// so at most 1% of the slots quarantine.
TEST(Pool, LethalFaultRatesNeverLoseANonFaultedRecord) {
  sweep::PoolOptions Clean = fleetOptions(corpus::hostBody(racyBody));
  std::string CleanJournal = tempPath("fleet-clean.ckpt");
  std::remove(CleanJournal.c_str());
  sweep::ResilientOptions Baseline = Clean.Base;
  Baseline.CheckpointPath = CleanJournal;
  ASSERT_TRUE(sweep::resilient(Baseline).CheckpointError.empty());
  sweep::CheckpointLoad CleanLoad;
  std::string Error;
  ASSERT_TRUE(sweep::loadCheckpoint(CleanJournal, CleanLoad, Error)) << Error;
  std::remove(CleanJournal.c_str());

  for (double Rate : {0.0, 0.01, 0.05, 0.20}) {
    SCOPED_TRACE(Rate);
    inject::FaultPlanOptions PlanOpts;
    PlanOpts.PlanSeed = 2027;
    PlanOpts.FirstSeed = 1;
    PlanOpts.NumSeeds = Clean.Base.NumSeeds;
    PlanOpts.FaultRate = Rate;
    for (size_t K = 0; K < inject::NumFaultKinds; ++K)
      PlanOpts.Weights[K] =
          inject::isLethalFault(static_cast<inject::FaultKind>(K)) ? 1.0
                                                                   : 0.0;
    inject::FaultPlan Plan = inject::makeFaultPlan(PlanOpts);

    sweep::PoolOptions PO =
        fleetOptions(inject::instrumentedRunner(racyBody, Plan));
    std::string Journal = tempPath("fleet-rate.ckpt");
    std::remove(Journal.c_str());
    PO.Base.CheckpointPath = Journal;
    sweep::PoolResult R = sweep::pooled(PO);
    ASSERT_TRUE(R.Res.CheckpointError.empty()) << R.Res.CheckpointError;
    sweep::CheckpointLoad Load;
    ASSERT_TRUE(sweep::loadCheckpoint(Journal, Load, Error)) << Error;
    std::remove(Journal.c_str());

    std::map<uint64_t, sweep::SlotRecord> BySlot;
    for (const sweep::SlotRecord &Rec : Load.Records)
      BySlot[Rec.Slot] = Rec;
    for (const sweep::SlotRecord &CleanRec : CleanLoad.Records) {
      if (Plan.faulted(CleanRec.Seed))
        continue;
      auto It = BySlot.find(CleanRec.Slot);
      ASSERT_NE(It, BySlot.end()) << "lost slot " << CleanRec.Slot;
      EXPECT_EQ(It->second, CleanRec) << "slot " << CleanRec.Slot;
    }
    if (Rate == 0.05) {
      EXPECT_LE(R.Res.Quarantined.size() * 100, PO.Base.NumSeeds)
          << "completion below 0.99";
    }
  }
}

TEST(Pool, CrashMidCommitSalvagesThroughATinyArena) {
  // Tiny arenas + lethal faults: workers die while the parent holds
  // partially-drained streams, so the commit-cursor salvage and the
  // frame parser's partial-tail discard both fire for real. Still: the
  // full record count, and bit-identity with the fork-free downgrade's
  // quarantine decisions.
  inject::FaultPlan Plan = lethalPlan();
  sweep::PoolOptions PO = lethalOptions(Plan);
  PO.Host.ArenaBytes = 256;
  std::string Journal = tempPath("salvage.ckpt");
  std::remove(Journal.c_str());
  PO.Base.CheckpointPath = Journal;
  sweep::PoolResult R = sweep::pooled(PO);
  ASSERT_TRUE(R.Res.CheckpointError.empty()) << R.Res.CheckpointError;

  sweep::CheckpointLoad Load;
  std::string Error;
  ASSERT_TRUE(sweep::loadCheckpoint(Journal, Load, Error)) << Error;
  EXPECT_EQ(Load.Records.size(), PO.Base.NumSeeds)
      << "zero lost records through a 256-byte arena under crash load";
  EXPECT_EQ(R.Res.Quarantined.size(), 4u);
  std::remove(Journal.c_str());
}

TEST(Pool, AttemptBudgetUnifiedWithForkFreeDowngrade) {
  inject::FaultPlan Plan = lethalPlan();
  sweep::PoolOptions PO = lethalOptions(Plan);
  sweep::PoolResult Pooled = sweep::pooled(PO);

  sweep::PoolOptions FF = PO;
  FF.Host.ForceForkFree = true;
  sweep::PoolResult Downgraded = sweep::pooled(FF);
  ASSERT_TRUE(Downgraded.Stats.ForkFree);

  // Same quarantined seeds, same attempt counts, same retry totals —
  // the process-level attempt numbering unifies the budget across the
  // pool and the fork-free downgrade. Only the fault TAXONOMY differs: a
  // real death classifies from waitpid(), the downgrade surfaces as the
  // documented foreign exception.
  auto Seeds = [](const sweep::ResilientResult &R) {
    std::map<uint64_t, uint32_t> S;
    for (const sweep::SlotRecord &Q : R.Quarantined)
      S[Q.Seed] = Q.Attempts;
    return S;
  };
  EXPECT_EQ(Seeds(Pooled.Res), Seeds(Downgraded.Res));
  EXPECT_EQ(Pooled.Res.Retries, Downgraded.Res.Retries);
  EXPECT_EQ(Pooled.Res.Sweep, Downgraded.Res.Sweep)
      << "surviving slots must aggregate identically";
  for (const sweep::SlotRecord &Q : Downgraded.Res.Quarantined) {
    EXPECT_EQ(Q.Fault, sweep::FaultClass::ForeignException);
    EXPECT_NE(Q.FaultDetail.find("no sandbox"), std::string::npos)
        << Q.FaultDetail;
  }
  EXPECT_EQ(Downgraded.Stats.WorkerSpawns, 0u);
}

TEST(Pool, PoisonWorkerDeathsQuarantinesEarly) {
  // K=1: the first death a slot causes quarantines it immediately, with
  // attempt budget to spare. Documented divergence from the unified
  // budget — but faster containment when workers are precious.
  inject::FaultPlan Plan;
  inject::FaultSpec Chronic;
  Chronic.Kind = inject::FaultKind::AbortCall;
  Chronic.LethalAttempts = UINT32_MAX;
  Plan.BySeed[3] = Chronic;
  sweep::PoolOptions PO =
      baseOptions(inject::instrumentedRunner(racyBody, Plan), 8);
  PO.Host.RlimitAsBytes = 768ull << 20;
  PO.Base.MaxAttempts = 3;
  PO.Host.PoisonWorkerDeaths = 1;
  sweep::PoolResult R = sweep::pooled(PO);

  ASSERT_EQ(R.Res.Quarantined.size(), 1u);
  EXPECT_EQ(R.Res.Quarantined[0].Seed, 3u);
  EXPECT_EQ(R.Res.Quarantined[0].Attempts, 1u)
      << "quarantined on the first death, not at MaxAttempts";
  EXPECT_EQ(R.Stats.PoisonSlots, 1u);
  EXPECT_EQ(R.Stats.deaths(), 1u);
  // The other seven slots completed normally.
  EXPECT_EQ(R.Res.Sweep.SeedsRun, 7u);
}

TEST(Pool, RespawnBackoffBoundsTheCrashStorm) {
  // One chronic crasher, one worker, three attempts: spawn, immediate
  // respawn, then ONE backed-off respawn at the configured base. The
  // documented trajectory — first respawn of a streak free, the Nth
  // waits Base << (N-2) — gives exactly one 50ms wait.
  inject::FaultPlan Plan;
  inject::FaultSpec Chronic;
  Chronic.Kind = inject::FaultKind::AbortCall;
  Chronic.LethalAttempts = UINT32_MAX;
  Plan.BySeed[3] = Chronic;
  sweep::PoolOptions PO =
      baseOptions(inject::instrumentedRunner(racyBody, Plan), 1);
  PO.Base.FirstSeed = 3;
  PO.Base.MaxAttempts = 3;
  PO.Base.Threads = 1;
  PO.Host.RlimitAsBytes = 768ull << 20;
  PO.Host.RespawnBackoffMicros = 50'000;
  PO.Host.RespawnBackoffMaxMicros = 500'000;

  auto Start = std::chrono::steady_clock::now();
  sweep::PoolResult R = sweep::pooled(PO);
  auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - Start);

  ASSERT_EQ(R.Res.Quarantined.size(), 1u);
  EXPECT_EQ(R.Stats.WorkerSpawns, 3u);
  EXPECT_EQ(R.Stats.Respawns, 2u);
  EXPECT_EQ(R.Stats.BackoffWaits, 1u);
  EXPECT_EQ(R.Stats.BackoffMicros, 50'000u);
  EXPECT_GE(Elapsed.count(), 45) << "the backed-off respawn must wait";
}

TEST(Pool, SupervisorKillsStalledWorker) {
  // Seed 2's body spins without ever reaching a scheduling point and the
  // worker watchdog is DISARMED — only the parent's stall deadline can
  // recover the slot.
  auto Body = [] {
    if (rt::Runtime::current().options().Seed == 2) {
      volatile uint64_t Spin = 0;
      for (;;)
        Spin = Spin + 1;
    }
    racyBody();
  };
  sweep::PoolOptions PO = baseOptions(corpus::hostBody(Body), 4);
  PO.Base.MaxAttempts = 1; // one stall kill, not one per attempt
  PO.Host.WorkerStallMillis = 400;
  sweep::PoolResult R = sweep::pooled(PO);

  ASSERT_EQ(R.Res.Quarantined.size(), 1u);
  EXPECT_EQ(R.Res.Quarantined[0].Seed, 2u);
  EXPECT_EQ(R.Res.Quarantined[0].Fault, sweep::FaultClass::Watchdog);
  EXPECT_NE(R.Res.Quarantined[0].FaultDetail.find("supervisor"),
            std::string::npos);
  EXPECT_EQ(R.Stats.SupervisorKills, 1u);
  EXPECT_EQ(
      R.Stats.DeathsByClass[static_cast<size_t>(sweep::FaultClass::Watchdog)],
      1u);
  // The other three slots completed despite the stall.
  EXPECT_EQ(R.Res.Sweep.SeedsRun, 3u);
}

TEST(Pool, CompletedSlotsAreNeverReExecutedAcrossARespawn) {
  // The salvage-and-respawn invariant: a slot whose record reached the
  // supervisor is finished — the respawned worker must never re-run it,
  // and never charge it an attempt for a death it did not cause. Pinned
  // with a side-effect ledger the bodies append to: one worker runs seed
  // 1, stalls on seed 2 and is killed; its replacement runs seeds 3 and
  // 4. Every seed's body runs EXACTLY once (the staller included —
  // MaxAttempts=1 quarantines it on the first death).
  std::string Ledger = tempPath("respawn-ledger.txt");
  std::remove(Ledger.c_str());
  auto Body = [Ledger] {
    uint64_t Seed = rt::Runtime::current().options().Seed;
    {
      std::ofstream Out(Ledger, std::ios::app);
      Out << Seed << "\n";
    }
    if (Seed == 2) {
      volatile uint64_t Spin = 0;
      for (;;)
        Spin = Spin + 1;
    }
    racyBody();
  };
  sweep::PoolOptions PO = baseOptions(corpus::hostBody(Body), 4);
  PO.Base.Threads = 1;
  PO.Base.MaxAttempts = 1;
  PO.Host.WorkerStallMillis = 400;
  PO.Host.EnableSeccomp = false; // the body opens the ledger file
  sweep::PoolResult R = sweep::pooled(PO);

  ASSERT_FALSE(R.Stats.ForkFree);
  ASSERT_EQ(R.Res.Quarantined.size(), 1u);
  EXPECT_EQ(R.Res.Quarantined[0].Seed, 2u);
  EXPECT_EQ(R.Res.Quarantined[0].Attempts, 1u);
  EXPECT_EQ(R.Res.Sweep.SeedsRun, 3u);
  EXPECT_EQ(R.Stats.SupervisorKills, 1u);
  EXPECT_EQ(R.Stats.Respawns, 1u) << "seeds 3 and 4 need a fresh worker";

  std::map<uint64_t, unsigned> Runs;
  std::ifstream In(Ledger);
  uint64_t Seed;
  while (In >> Seed)
    ++Runs[Seed];
  ASSERT_EQ(Runs.size(), 4u) << "every seed's body must have run";
  for (const auto &[S, N] : Runs)
    EXPECT_EQ(N, 1u) << "seed " << S
                     << " re-executed across the respawn: completed work "
                        "must survive a sibling's death";
  std::remove(Ledger.c_str());
}

//===----------------------------------------------------------------------===//
// Journal sharing with the other executors
//===----------------------------------------------------------------------===//

TEST(Pool, TruncatedJournalResumesBitIdentical) {
  sweep::PoolOptions PO = baseOptions(corpus::hostBody(racyBody), 24);
  std::string Journal = tempPath("resume.ckpt");
  std::remove(Journal.c_str());
  PO.Base.CheckpointPath = Journal;
  sweep::PoolResult Original = sweep::pooled(PO);
  ASSERT_TRUE(Original.Res.CheckpointError.empty());

  std::vector<uint8_t> Full = readFileBytes(Journal);
  ASSERT_GT(Full.size(), 7u);
  writeFileBytes(Journal, std::vector<uint8_t>(Full.begin(), Full.end() - 7));

  sweep::PoolOptions Resumed = PO;
  Resumed.Base.Resume = true;
  sweep::PoolResult R = sweep::pooled(Resumed);
  EXPECT_TRUE(R.Res.CheckpointError.empty()) << R.Res.CheckpointError;
  EXPECT_EQ(R.Res.ResumedSlots, PO.Base.NumSeeds - 1);
  EXPECT_EQ(R.Res.Sweep, Original.Res.Sweep);
  EXPECT_EQ(R.Res.Quarantined, Original.Res.Quarantined);
  std::remove(Journal.c_str());
}

TEST(Pool, ResumesAJournalWrittenByResilient) {
  // The journal format and meta hash are SHARED: a sweep interrupted
  // under the in-process executor resumes under the pool.
  sweep::PoolOptions PO = baseOptions(corpus::hostBody(racyBody), 16);
  std::string Journal = tempPath("cross.ckpt");
  std::remove(Journal.c_str());
  PO.Base.CheckpointPath = Journal;
  sweep::ResilientResult InProcess = sweep::resilient(PO.Base);
  ASSERT_TRUE(InProcess.CheckpointError.empty());

  std::vector<uint8_t> Full = readFileBytes(Journal);
  ASSERT_GT(Full.size(), 5u);
  writeFileBytes(Journal, std::vector<uint8_t>(Full.begin(), Full.end() - 5));

  sweep::PoolOptions Resumed = PO;
  Resumed.Base.Resume = true;
  sweep::PoolResult R = sweep::pooled(Resumed);
  EXPECT_TRUE(R.Res.CheckpointError.empty()) << R.Res.CheckpointError;
  EXPECT_EQ(R.Res.ResumedSlots, PO.Base.NumSeeds - 1);
  EXPECT_EQ(R.Res.Sweep, InProcess.Sweep);
  std::remove(Journal.c_str());
}

//===----------------------------------------------------------------------===//
// Sandbox tiers and cgroup accounting
//===----------------------------------------------------------------------===//

TEST(Pool, SandboxTiersApplyWhereSupported) {
  bool Seccomp = sweep::seccompSupported();
  bool Landlock = sweep::landlockSupported();
  if (!Seccomp && !Landlock)
    GTEST_SKIP() << "kernel offers neither seccomp nor landlock";

  sweep::PoolOptions PO = baseOptions(corpus::hostBody(racyBody), 16);
  sweep::ResilientResult InProcess = sweep::resilient(PO.Base);
  PO.Host.EnableSeccomp = true;
  PO.Host.EnableLandlock = true;
  sweep::PoolResult R = sweep::pooled(PO);
  ASSERT_FALSE(R.Stats.ForkFree);

  // The hardened sandbox must not perturb the sweep: the runtime's
  // threads, allocations, and futexes all still work under the deny
  // lists, and the result stays bit-identical.
  EXPECT_EQ(R.Res, InProcess);
  sweep::SandboxTier Expected =
      Seccomp ? (Landlock ? sweep::SandboxTier::SeccompLandlock
                          : sweep::SandboxTier::Seccomp)
              : sweep::SandboxTier::Landlock;
  EXPECT_EQ(R.Stats.Tier, Expected)
      << "got tier " << sweep::sandboxTierName(R.Stats.Tier);
}

TEST(Pool, AddressSpaceLimitIsHeadroomAboveTheHost) {
  // A host that already maps more than RlimitAsBytes (the service
  // daemon maps ~300 MB): every worker starts at the host's size, so an
  // absolute RLIMIT_AS would leave it no room for a single new mapping.
  constexpr size_t Reserve = 300u << 20;
  void *Hold = mmap(nullptr, Reserve, PROT_NONE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(Hold, MAP_FAILED);
  sweep::PoolOptions PO =
      baseOptions(corpus::hostBody(allocatingRacyBody), 16);
  ASSERT_LT(PO.Host.RlimitAsBytes, Reserve);
  sweep::PoolResult Pooled = sweep::pooled(PO);
  sweep::ResilientResult InProcess = sweep::resilient(PO.Base);
  munmap(Hold, Reserve);

  EXPECT_FALSE(Pooled.Stats.ForkFree);
  EXPECT_TRUE(Pooled.Res.Quarantined.empty());
  EXPECT_EQ(Pooled.Stats.deaths(), 0u);
  EXPECT_EQ(Pooled.Res, InProcess);
}

TEST(Pool, SandboxTierDefaultsToRlimitOnly) {
  sweep::PoolOptions PO = baseOptions(corpus::hostBody(racyBody), 4);
  sweep::PoolResult R = sweep::pooled(PO);
  EXPECT_EQ(R.Stats.Tier, sweep::SandboxTier::RlimitOnly);
}

TEST(Pool, CgroupMemoryAccountingOrTransparentFallback) {
  sweep::PoolOptions PO = baseOptions(corpus::hostBody(racyBody), 16);
  sweep::ResilientResult InProcess = sweep::resilient(PO.Base);
  PO.Host.UseCgroupMemory = true;
  sweep::PoolResult R = sweep::pooled(PO);
  // Whether or not the host grants a writable memory controller, the
  // sweep result is unchanged — accounting is observability, not
  // semantics.
  EXPECT_EQ(R.Res, InProcess);
  if (!R.Stats.CgroupMemory)
    GTEST_SKIP() << "no writable cgroup-v2 memory controller here; "
                    "fell back to RLIMIT_AS + exit-97 (by design)";
}

//===----------------------------------------------------------------------===//
// Instruments
//===----------------------------------------------------------------------===//

TEST(Pool, InstrumentsExported) {
  inject::FaultPlan Plan = lethalPlan();
  sweep::PoolOptions PO = lethalOptions(Plan);
  obs::Registry Reg;
  PO.Base.Metrics = &Reg;
  sweep::PoolResult R = sweep::pooled(PO);

  EXPECT_EQ(Reg.findCounter("grs_pool_worker_spawns_total")->value(),
            R.Stats.WorkerSpawns);
  EXPECT_EQ(Reg.findCounter("grs_pool_respawns_total")->value(),
            R.Stats.Respawns);
  EXPECT_EQ(Reg.findCounter("grs_pool_poison_slots_total")->value(),
            R.Stats.PoisonSlots);
  EXPECT_EQ(Reg.findCounter("grs_pool_arena_bytes_total")->value(),
            R.Stats.ArenaBytesReceived);
  EXPECT_EQ(Reg.findCounter("grs_pool_backoff_waits_total")->value(),
            R.Stats.BackoffWaits);
  EXPECT_EQ(Reg.findGauge("grs_pool_fork_free")->value(), 0.0);
  EXPECT_EQ(Reg.findGauge("grs_isolation_sandbox_tier")->value(),
            static_cast<double>(R.Stats.Tier));
  uint64_t Deaths = 0;
  for (size_t C = 0; C < sweep::NumFaultClasses; ++C)
    if (const obs::Counter *Counter = Reg.findCounter(
            "grs_pool_worker_deaths_total",
            {{"class",
              sweep::faultClassName(static_cast<sweep::FaultClass>(C))}}))
      Deaths += Counter->value();
  EXPECT_EQ(Deaths, R.Stats.deaths());
  EXPECT_GT(Deaths, 0u);
}

} // namespace
