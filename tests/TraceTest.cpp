//===- tests/TraceTest.cpp - Trace capture, round trip, offline parity ----===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// Three layers of guarantees for src/trace/:
//  * codec: encode→decode is identity over randomized event streams, and
//    malformed bytes fail with errors instead of UB;
//  * capture: a runtime run tees a decodable trace whose structure
//    matches the execution;
//  * offline parity: replaying a captured trace through OfflineDetector
//    reproduces the online run's verdicts exactly, for every corpus
//    pattern across ≥50 seeds — detection is a pure function of the
//    trace.
//
//===----------------------------------------------------------------------===//

#include "trace/Offline.h"
#include "trace/Trace.h"

#include "corpus/Patterns.h"
#include "pipeline/Fingerprint.h"
#include "rt/Channel.h"
#include "rt/Instr.h"
#include "rt/Sync.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

using namespace grs;
using race::EventKind;

namespace {

//===----------------------------------------------------------------------===//
// Codec: round-trip property and checked decoding
//===----------------------------------------------------------------------===//

/// A randomized event with storage for its string operands.
struct OwnedEvent {
  race::TraceEvent E;
  std::string S1, S2;
};

OwnedEvent randomEvent(support::Rng &Rng,
                       const std::vector<std::string> &Pool) {
  OwnedEvent Owned;
  race::TraceEvent &E = Owned.E;
  E.Kind = static_cast<EventKind>(Rng.nextBelow(race::NumEventKinds));
  trace::EventFields F = trace::eventFields(E.Kind);
  if (F.HasT)
    E.T = static_cast<race::Tid>(Rng.nextBelow(1 << 20));
  if (F.HasA)
    E.A = Rng.next() >> Rng.nextBelow(64); // Exercise all varint widths.
  if (F.HasB)
    E.B = Rng.next() >> Rng.nextBelow(64);
  if (F.HasFlag)
    E.Flag = Rng.chance(0.5);
  if (F.HasStr1) {
    Owned.S1 = Rng.pick(Pool);
    E.Str1 = &Owned.S1;
  }
  if (F.HasStr2) {
    Owned.S2 = Rng.pick(Pool);
    E.Str2 = &Owned.S2;
  }
  return Owned;
}

TEST(TraceCodec, EncodeDecodeIsIdentityOverRandomStreams) {
  std::vector<std::string> Pool = {
      "", "x", "counter", "mu", "results.slice", "pkg.Func",
      "service/handler.go", std::string(300, 'n'), "日本語-utf8 bytes"};
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    support::Rng Rng(Seed);
    size_t Count = 1 + Rng.nextBelow(400);
    std::vector<OwnedEvent> Events;
    Events.reserve(Count);
    trace::TraceSink Sink;
    for (size_t I = 0; I < Count; ++I) {
      // Re-point the borrowed string operands at their post-move storage
      // before handing the event to the sink.
      OwnedEvent &Owned = Events.emplace_back(randomEvent(Rng, Pool));
      if (Owned.E.Str1)
        Owned.E.Str1 = &Owned.S1;
      if (Owned.E.Str2)
        Owned.E.Str2 = &Owned.S2;
      Sink.onTraceEvent(Owned.E);
    }
    EXPECT_EQ(Sink.eventCount(), Count);

    trace::Trace Decoded;
    trace::TraceReader Reader(Sink.bytes());
    ASSERT_TRUE(Reader.readAll(Decoded)) << Reader.error();
    ASSERT_EQ(Decoded.Events.size(), Count) << "seed " << Seed;
    for (size_t I = 0; I < Count; ++I) {
      const race::TraceEvent &Want = Events[I].E;
      const trace::TraceRecord &Got = Decoded.Events[I];
      trace::EventFields F = trace::eventFields(Want.Kind);
      ASSERT_EQ(Got.Kind, Want.Kind) << "event " << I;
      EXPECT_EQ(Got.T, F.HasT ? Want.T : 0u);
      EXPECT_EQ(Got.A, F.HasA ? Want.A : 0u);
      EXPECT_EQ(Got.B, F.HasB ? Want.B : 0u);
      EXPECT_EQ(Got.Flag, F.HasFlag ? Want.Flag : false);
      if (F.HasStr1) {
        EXPECT_EQ(Decoded.text(Got.Str1), Events[I].S1);
      }
      if (F.HasStr2) {
        EXPECT_EQ(Decoded.text(Got.Str2), Events[I].S2);
      }
    }
  }
}

TEST(TraceCodec, StringTableIsInternedNotRepeated) {
  trace::TraceSink Sink;
  std::string Name = "the-same-rather-long-variable-name";
  race::TraceEvent E;
  E.Kind = EventKind::Write;
  E.Str1 = &Name;
  Sink.onTraceEvent(E);
  size_t AfterFirst = Sink.bytes().size();
  for (int I = 0; I < 100; ++I)
    Sink.onTraceEvent(E);
  // 100 more writes of an interned name must not re-emit its bytes.
  size_t PerEvent = (Sink.bytes().size() - AfterFirst) / 100;
  EXPECT_LT(PerEvent, Name.size());
  trace::Trace Decoded = trace::decodeOrDie(Sink.bytes());
  EXPECT_EQ(Decoded.Events.size(), 101u);
  EXPECT_EQ(Decoded.Strings.size(), 1u);
}

TEST(TraceCodec, RejectsBadMagic) {
  std::vector<uint8_t> Bytes = {'N', 'O', 'T', 'A', 'T', 'R', 'A', 'C', 1};
  trace::Trace Out;
  trace::TraceReader Reader(Bytes);
  EXPECT_FALSE(Reader.readAll(Out));
  EXPECT_NE(Reader.error().find("magic"), std::string::npos);
}

TEST(TraceCodec, RejectsTruncation) {
  trace::TraceSink Sink;
  std::string Name = "v";
  race::TraceEvent E;
  E.Kind = EventKind::Write;
  E.T = 3;
  E.A = 1 << 30; // Multi-byte varint, so truncation can split it.
  E.Str1 = &Name;
  for (int I = 0; I < 8; ++I)
    Sink.onTraceEvent(E);
  const std::vector<uint8_t> &Full = Sink.bytes();
  // Every strict prefix must either decode fewer events or fail — never
  // crash, never fabricate events.
  for (size_t Cut = 0; Cut < Full.size(); ++Cut) {
    trace::Trace Out;
    trace::TraceReader Reader(Full.data(), Cut);
    bool Ok = Reader.readAll(Out);
    if (Ok)
      EXPECT_LT(Out.Events.size(), 8u);
    else
      EXPECT_TRUE(Reader.failed());
  }
}

TEST(TraceCodec, RejectsUnknownEventTag) {
  trace::TraceSink Sink;
  std::vector<uint8_t> Bytes = Sink.bytes(); // Header only.
  Bytes.push_back(race::NumEventKinds + 5);  // Tag beyond the vocabulary.
  trace::Trace Out;
  trace::TraceReader Reader(Bytes);
  EXPECT_FALSE(Reader.readAll(Out));
  EXPECT_NE(Reader.error().find("unknown event tag"), std::string::npos);
}

TEST(TraceCodec, RejectsDanglingStringId) {
  trace::TraceSink Sink;
  std::vector<uint8_t> Bytes = Sink.bytes();
  // Read event (tag = Read+1) of t=0, a=0 naming string id 7 — undefined.
  Bytes.push_back(static_cast<uint8_t>(EventKind::Read) + 1);
  Bytes.push_back(0);
  Bytes.push_back(0);
  Bytes.push_back(7);
  trace::Trace Out;
  trace::TraceReader Reader(Bytes);
  EXPECT_FALSE(Reader.readAll(Out));
  EXPECT_NE(Reader.error().find("dangling string id"), std::string::npos);
}

TEST(TraceCodec, RejectsUnsupportedVersion) {
  std::vector<uint8_t> Bytes(trace::TraceMagic,
                             trace::TraceMagic + sizeof(trace::TraceMagic));
  Bytes.push_back(42);
  trace::Trace Out;
  trace::TraceReader Reader(Bytes);
  EXPECT_FALSE(Reader.readAll(Out));
  EXPECT_NE(Reader.error().find("version"), std::string::npos);
}

TEST(TraceCodec, FileRoundTrip) {
  trace::TraceSink Sink;
  std::string Name = "filed";
  race::TraceEvent E;
  E.Kind = EventKind::Read;
  E.T = 1;
  E.A = 99;
  E.Str1 = &Name;
  Sink.onTraceEvent(E);
  const char *Path = "trace_roundtrip_test.bin";
  ASSERT_TRUE(Sink.writeFile(Path));
  trace::Trace Out;
  std::string Error;
  ASSERT_TRUE(trace::readTraceFile(Path, Out, Error)) << Error;
  ASSERT_EQ(Out.Events.size(), 1u);
  EXPECT_EQ(Out.Events[0].Kind, EventKind::Read);
  EXPECT_EQ(Out.text(Out.Events[0].Str1), "filed");
  std::remove(Path);
}

//===----------------------------------------------------------------------===//
// Capture: a run's tee decodes and looks like the execution
//===----------------------------------------------------------------------===//

TEST(TraceCapture, RunTeesDecodableStructuredTrace) {
  trace::TraceSink Sink;
  rt::RunOptions Opts;
  Opts.Seed = 7;
  Opts.Trace = &Sink;
  rt::Runtime RT(Opts);
  RT.run([] {
    rt::Shared<int> X("x");
    rt::Mutex Mu("mu");
    rt::Chan<int> Ch(1, "ch");
    rt::WaitGroup Wg("wg");
    Wg.add(1);
    rt::go("worker", [&] {
      Mu.lock();
      X = X + 1;
      Mu.unlock();
      Ch.send(42);
      Wg.done();
    });
    int Got = Ch.recvValue();
    Mu.lock();
    X = X + Got;
    Mu.unlock();
    Wg.wait();
  });

  trace::Trace T = trace::decodeOrDie(Sink.bytes());
  EXPECT_EQ(static_cast<uint64_t>(T.Events.size()), Sink.eventCount());

  size_t Forks = 0, Sends = 0, Recvs = 0, Accesses = 0, Locks = 0;
  for (const trace::TraceRecord &R : T.Events) {
    Forks += R.Kind == EventKind::Fork;
    Sends += R.Kind == EventKind::ChannelSend;
    Recvs += R.Kind == EventKind::ChannelRecv;
    Locks += R.Kind == EventKind::LockAcquire;
    Accesses += R.Kind == EventKind::Read || R.Kind == EventKind::Write;
  }
  EXPECT_EQ(Forks, 1u);
  EXPECT_EQ(Sends, 1u);
  EXPECT_EQ(Recvs, 1u);
  EXPECT_EQ(Locks, 2u);
  EXPECT_GE(Accesses, 4u);
  // The goroutine name travels in the trace string table (via the
  // goroutine root frame).
  EXPECT_NE(std::find(T.Strings.begin(), T.Strings.end(), "worker"),
            T.Strings.end());
}

//===----------------------------------------------------------------------===//
// Offline parity: replay == online, corpus-wide
//===----------------------------------------------------------------------===//

struct OnlineRun {
  rt::RunResult Result;
  std::vector<uint64_t> Fingerprints;
  std::vector<uint8_t> TraceBytes;
};

OnlineRun runOnline(const corpus::Pattern &P, uint64_t Seed,
                    race::DetectorOptions DetOpts, bool Racy = true) {
  OnlineRun Run;
  trace::TraceSink Sink;
  rt::RunOptions Opts;
  Opts.Seed = Seed;
  Opts.Detector = DetOpts;
  Opts.Trace = &Sink;
  Opts.OnReport = [&Run](const race::Detector &D,
                         const race::RaceReport &Report) {
    Run.Fingerprints.push_back(
        pipeline::raceFingerprint(D.interner(), Report));
  };
  Run.Result = Racy ? P.RunRacy(Opts) : P.RunFixed(Opts);
  std::sort(Run.Fingerprints.begin(), Run.Fingerprints.end());
  Run.TraceBytes = Sink.take();
  return Run;
}

TEST(OfflineParity, EveryCorpusPatternAcross50Seeds) {
  race::DetectorOptions DetOpts; // Pure HB, the paper's default.
  for (const corpus::Pattern &P : corpus::allPatterns()) {
    size_t SeedsWithRaces = 0;
    for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
      OnlineRun Online = runOnline(P, Seed, DetOpts);
      trace::OfflineDetector Offline(DetOpts);
      ASSERT_TRUE(Offline.replayBytes(Online.TraceBytes))
          << P.Id << " seed " << Seed << ": " << Offline.error();
      EXPECT_EQ(Offline.det().reports().size(), Online.Result.RaceCount)
          << P.Id << " seed " << Seed;
      EXPECT_EQ(Offline.fingerprints(), Online.Fingerprints)
          << P.Id << " seed " << Seed;
      SeedsWithRaces += Online.Result.RaceCount > 0;
    }
    // Sanity: the corpus is a race corpus; parity over all-clean runs
    // would be vacuous. Every racy pattern manifests on some swept seed.
    EXPECT_GT(SeedsWithRaces, 0u) << P.Id;
  }
}

TEST(OfflineParity, FixedVariantsStayCleanOffline) {
  race::DetectorOptions DetOpts;
  for (const corpus::Pattern &P : corpus::allPatterns()) {
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      OnlineRun Online = runOnline(P, Seed, DetOpts, /*Racy=*/false);
      trace::OfflineDetector Offline(DetOpts);
      ASSERT_TRUE(Offline.replayBytes(Online.TraceBytes)) << P.Id;
      EXPECT_EQ(Offline.det().reports().size(), Online.Result.RaceCount)
          << P.Id << " seed " << Seed;
    }
  }
}

TEST(OfflineParity, HybridModeParityAndAblationReuse) {
  // One captured execution, three analysis questions — without
  // re-running the scheduler.
  race::DetectorOptions Hybrid;
  Hybrid.Mode = race::DetectMode::Hybrid;
  for (const corpus::Pattern &P : corpus::allPatterns()) {
    OnlineRun Online = runOnline(P, /*Seed=*/11, Hybrid);
    trace::Trace T = trace::decodeOrDie(Online.TraceBytes);

    // (1) Same options: exact parity.
    EXPECT_EQ(trace::replayFingerprints(T, Hybrid), Online.Fingerprints)
        << P.Id;

    // (2) Pure HB over the same trace: a subset of the hybrid verdicts.
    std::vector<uint64_t> Hb = trace::replayFingerprints(T, {});
    for (uint64_t Fp : Hb)
      EXPECT_TRUE(std::binary_search(Online.Fingerprints.begin(),
                                     Online.Fingerprints.end(), Fp))
          << P.Id;

    // (3) Epoch ablation: identical verdicts, different cost (the
    // FuzzTest equivalence, now provable from one recorded trace).
    race::DetectorOptions NoEpochs = Hybrid;
    NoEpochs.EpochOptimization = false;
    EXPECT_EQ(trace::replayFingerprints(T, NoEpochs), Online.Fingerprints)
        << P.Id;
  }
}

TEST(OfflineParity, GcReplayReproducesOnlineVerdictsEitherWay) {
  // The GC ablation row of EXPERIMENTS.md rests on this: a trace
  // captured from a GC-on run (which records DestroySync events) replays
  // to the online verdicts under GC-on AND under GC-off. Collections
  // observe traced events but emit none, so replay reproduces the online
  // GC schedule automatically; and destroy/free-list bookkeeping is
  // GcMode-independent, so the recorded sync ids resolve identically
  // whichever way the re-analysis runs.
  race::DetectorOptions GcOn; // Gc = MinClock is the default.
  GcOn.GcIntervalEvents = 32; // Hostile: collect every 32 events.
  race::DetectorOptions GcOff;
  GcOff.Gc = race::GcMode::Off;
  for (const corpus::Pattern &P : corpus::allPatterns()) {
    for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
      OnlineRun Online = runOnline(P, Seed, GcOn);
      for (const race::DetectorOptions &ReplayOpts : {GcOn, GcOff}) {
        trace::OfflineDetector Offline(ReplayOpts);
        ASSERT_TRUE(Offline.replayBytes(Online.TraceBytes))
            << P.Id << " seed " << Seed << ": " << Offline.error();
        EXPECT_EQ(Offline.det().reports().size(), Online.Result.RaceCount)
            << P.Id << " seed " << Seed;
        EXPECT_EQ(Offline.fingerprints(), Online.Fingerprints)
            << P.Id << " seed " << Seed;
      }
    }
  }
}

TEST(OfflineParity, ReplayStatsMatchOnlineEventCounts) {
  const corpus::Pattern *P = corpus::findPattern(
      corpus::allPatterns().front().Id);
  ASSERT_NE(P, nullptr);
  race::DetectorOptions DetOpts;
  OnlineRun Online = runOnline(*P, 5, DetOpts);
  trace::OfflineDetector Offline(DetOpts);
  ASSERT_TRUE(Offline.replayBytes(Online.TraceBytes));
  // The replayed detector consumed one event per recorded record.
  trace::Trace T = trace::decodeOrDie(Online.TraceBytes);
  EXPECT_EQ(Offline.eventsReplayed(), T.Events.size());
  EXPECT_GT(Offline.det().stats().Reads + Offline.det().stats().Writes, 0u);
}

TEST(OfflineReplay, StructurallyBrokenTraceFailsCleanly) {
  // A fork from a goroutine that was never allocated.
  trace::TraceSink Sink;
  race::TraceEvent E;
  E.Kind = EventKind::Fork;
  E.T = 4;
  Sink.onTraceEvent(E);
  trace::OfflineDetector Offline;
  EXPECT_FALSE(Offline.replayBytes(Sink.bytes()));
  EXPECT_NE(Offline.error().find("unallocated goroutine"),
            std::string::npos);
}

} // namespace
