//===- bench/bench_timeline.cpp - Flight-recorder cost and identity -------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// The obs::Timeline contract, measured and gated:
//
//  1. BIT-IDENTITY — a sweep with tracing enabled must be completely
//     indistinguishable, result-wise, from the same sweep without it:
//     pipeline::sweep, the parallel sweep (sweep::resilient, one attempt
//     per seed, also equal to the serial sweep), sweep::adaptive,
//     sweep::resilient, and sweep::pooled results compare equal
//     (fingerprint sets included), and the checkpoint journals written by
//     a traced and an untraced single-worker pooled sweep are
//     byte-for-byte equal.
//  2. TRACE VALIDITY — the traced sweep::pooled run's Chrome trace JSON
//     is structurally sound and contains both parent supervisor spans and
//     worker spans stitched through the shm arena with a real (nonzero)
//     pid.
//  3. OVERHEAD — a DISABLED timeline threaded through the sweep must cost
//     nothing measurable next to no timeline at all (the null-handle
//     contract), and the recording fast path is measured per event for
//     EXPERIMENTS.md.
//
// Gates (exit nonzero, so CI needs no JSON parsing): any identity or
// journal mismatch, a structurally broken trace, or disabled-timeline
// overhead above the CI budget (10% — generous because CI machines are
// noisy; the measured number, reported in the JSON, is what EXPERIMENTS.md
// quotes).
//
// Usage: bench_timeline [--smoke] [--out FILE] [--trace-out FILE]
//
//===----------------------------------------------------------------------===//

#include "corpus/Patterns.h"
#include "pipeline/Sweep.h"
#include "rt/Instr.h"
#include "sweep/Adaptive.h"
#include "sweep/Pool.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace grs;

namespace {

/// Schedule-dependent race (same shape as bench_isolation's): the
/// identity gates need real verdict structure — fingerprints, racy and
/// clean seeds — to bite on.
void racyBody() {
  auto X = std::make_shared<rt::Shared<int>>("x", 0);
  rt::Runtime &RT = rt::Runtime::current();
  RT.go("writer", [X] { X->store(1); });
  X->store(2);
}

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string tempPath(const std::string &Name) {
  return (std::filesystem::temp_directory_path() /
          ("grs-bench-timeline-" + Name))
      .string();
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return true;
}

struct Identity {
  bool Sweep = false;
  bool Parallel = false;
  bool Adaptive = false;
  bool Resilient = false;
  bool Pooled = false;
  bool Journal = false;

  bool all() const {
    return Sweep && Parallel && Adaptive && Resilient && Pooled && Journal;
  }
};

struct TraceShape {
  size_t Tracks = 0;
  size_t ChildTracks = 0;   ///< Stitched worker tracks (nonzero pid).
  uint64_t Events = 0;      ///< Retained events across all tracks.
  uint64_t ChildEvents = 0; ///< Retained events on stitched tracks.
  uint64_t Dropped = 0;
  uint64_t Chunks = 0; ///< TimelineChunk frames stitched.
  bool JsonValid = false;
};

struct Overhead {
  double NoneMs = 0.0;
  double DisabledMs = 0.0;
  double EnabledMs = 0.0;
  double NullNsPerOp = 0.0;
  double RecordNsPerEvent = 0.0;

  double disabledPct() const {
    return NoneMs > 0.0 ? (DisabledMs / NoneMs - 1.0) * 100.0 : 0.0;
  }
  double enabledPct() const {
    return NoneMs > 0.0 ? (EnabledMs / NoneMs - 1.0) * 100.0 : 0.0;
  }
};

/// Structural sanity for a Chrome trace document: the envelope is right,
/// every event carries a phase, and begins/ends balance per track (the
/// RAII scopes guarantee it at record time; this checks the EXPORT).
bool validateTraceJson(const std::string &Json) {
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

void emitJson(FILE *Out, const Overhead &OH, const Identity &Id,
              const TraceShape &TS, bool ForkFreeOnly) {
  std::fprintf(Out,
               "{\n"
               "  \"overhead\": {\"none_ms\": %.2f, \"disabled_ms\": %.2f, "
               "\"enabled_ms\": %.2f, \"disabled_pct\": %.2f, "
               "\"enabled_pct\": %.2f, \"null_ns_per_op\": %.3f, "
               "\"record_ns_per_event\": %.1f},\n",
               OH.NoneMs, OH.DisabledMs, OH.EnabledMs, OH.disabledPct(),
               OH.enabledPct(), OH.NullNsPerOp, OH.RecordNsPerEvent);
  std::fprintf(Out,
               "  \"identity\": {\"sweep\": %s, \"parallel\": %s, "
               "\"adaptive\": %s, \"resilient\": %s, \"pooled\": %s, "
               "\"journal\": %s},\n",
               Id.Sweep ? "true" : "false", Id.Parallel ? "true" : "false",
               Id.Adaptive ? "true" : "false", Id.Resilient ? "true" : "false",
               Id.Pooled ? "true" : "false", Id.Journal ? "true" : "false");
  std::fprintf(Out,
               "  \"trace\": {\"tracks\": %zu, \"child_tracks\": %zu, "
               "\"events\": %llu, \"child_events\": %llu, \"dropped\": %llu, "
               "\"chunks\": %llu, \"json_valid\": %s, "
               "\"fork_free_only\": %s}\n}\n",
               TS.Tracks, TS.ChildTracks,
               static_cast<unsigned long long>(TS.Events),
               static_cast<unsigned long long>(TS.ChildEvents),
               static_cast<unsigned long long>(TS.Dropped),
               static_cast<unsigned long long>(TS.Chunks),
               TS.JsonValid ? "true" : "false",
               ForkFreeOnly ? "true" : "false");
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  const char *OutPath = nullptr;
  std::string TraceOut;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--smoke")) {
      Smoke = true;
    } else if (!std::strcmp(Argv[I], "--out") && I + 1 < Argc) {
      OutPath = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--trace-out") && I + 1 < Argc) {
      TraceOut = Argv[++I];
    } else {
      std::fprintf(stderr,
                   "usage: bench_timeline [--smoke] [--out FILE] "
                   "[--trace-out FILE]\n");
      return 2;
    }
  }

  const uint64_t NumSeeds = Smoke ? 96 : 256;
  int Status = 0;
  Identity Id;

  //===--------------------------------------------------------------------===//
  // 1a. Serial sweep identity: traced == untraced.
  //===--------------------------------------------------------------------===//
  pipeline::SweepOptions SO;
  SO.NumSeeds = NumSeeds;
  pipeline::SweepResult Plain = pipeline::sweep(SO, racyBody);
  {
    obs::Timeline Tl;
    pipeline::SweepOptions Traced = SO;
    Traced.Timeline = &Tl;
    Id.Sweep = pipeline::sweep(Traced, racyBody) == Plain;
  }

  //===--------------------------------------------------------------------===//
  // 1b. Parallel sweep identity (also vs the serial result).
  //===--------------------------------------------------------------------===//
  {
    sweep::ResilientOptions PO;
    PO.NumSeeds = NumSeeds;
    PO.Threads = 4;
    PO.MaxAttempts = 1;
    PO.Body = corpus::hostBody(racyBody);
    obs::Timeline Tl;
    sweep::ResilientOptions Traced = PO;
    Traced.Timeline = &Tl;
    auto MatchesSerial = [&Plain](const sweep::ResilientResult &R) {
      return R.Sweep == Plain && R.Quarantined.empty();
    };
    Id.Parallel = MatchesSerial(sweep::resilient(PO)) &&
                  MatchesSerial(sweep::resilient(Traced));
  }

  //===--------------------------------------------------------------------===//
  // 1c. Adaptive sweep identity: the planner must not see the recorder.
  //===--------------------------------------------------------------------===//
  {
    sweep::AdaptiveOptions AO;
    AO.NumRuns = NumSeeds;
    AO.Threads = 2;
    AO.Body = corpus::hostBody(racyBody);
    sweep::AdaptiveResult PlainA = sweep::adaptive(AO);
    obs::Timeline Tl;
    sweep::AdaptiveOptions Traced = AO;
    Traced.Timeline = &Tl;
    Id.Adaptive = sweep::adaptive(Traced) == PlainA;
  }

  //===--------------------------------------------------------------------===//
  // 1d. Resilient sweep identity.
  //===--------------------------------------------------------------------===//
  sweep::ResilientOptions RO;
  RO.NumSeeds = NumSeeds;
  RO.Threads = 4;
  RO.Body = corpus::hostBody(racyBody);
  sweep::ResilientResult PlainR = sweep::resilient(RO);
  {
    obs::Timeline Tl;
    sweep::ResilientOptions Traced = RO;
    Traced.Timeline = &Tl;
    Id.Resilient = sweep::resilient(Traced) == PlainR;
  }

  //===--------------------------------------------------------------------===//
  // 1e. Pooled sweep identity + journal bytes + the stitched trace.
  //===--------------------------------------------------------------------===//
  bool ForkFreeOnly = !sweep::pooledAvailable();
  TraceShape TS;
  obs::Timeline PoolTl;
  {
    sweep::PoolOptions PO;
    PO.Base = RO;

    sweep::PoolResult PlainPool = sweep::pooled(PO);

    sweep::PoolOptions TracedPO = PO;
    TracedPO.Base.Timeline = &PoolTl;
    sweep::PoolResult TracedPool = sweep::pooled(TracedPO);

    Id.Pooled = TracedPool.Res == PlainPool.Res && PlainPool.Res == PlainR;
    TS.Chunks = TracedPool.Stats.TimelineChunks;

    // Journal byte-identity needs a deterministic append order, which
    // only a single worker provides (with several, appends land in
    // arena-drain order) — the point here is that TRACING does not
    // change the bytes, so compare with one worker.
    std::string PlainJournal = tempPath("plain.ckpt");
    std::string TracedJournal = tempPath("traced.ckpt");
    std::remove(PlainJournal.c_str());
    std::remove(TracedJournal.c_str());
    obs::Timeline JournalTl;
    sweep::PoolOptions SerialPlain = PO;
    SerialPlain.Base.Threads = 1;
    SerialPlain.Base.CheckpointPath = PlainJournal;
    sweep::pooled(SerialPlain);
    sweep::PoolOptions SerialTraced = SerialPlain;
    SerialTraced.Base.CheckpointPath = TracedJournal;
    SerialTraced.Base.Timeline = &JournalTl;
    sweep::pooled(SerialTraced);

    std::string PlainBytes, TracedBytes;
    Id.Journal = readFile(PlainJournal, PlainBytes) &&
                 readFile(TracedJournal, TracedBytes) &&
                 PlainBytes == TracedBytes && !PlainBytes.empty();
    std::remove(PlainJournal.c_str());
    std::remove(TracedJournal.c_str());

    for (size_t I = 0; I < PoolTl.numTracks(); ++I) {
      const obs::TimelineTrack &T = PoolTl.trackAt(I);
      ++TS.Tracks;
      TS.Events += T.size();
      TS.Dropped += T.droppedEvents();
      if (T.pid() != 0) {
        ++TS.ChildTracks;
        TS.ChildEvents += T.size();
      }
    }
    std::string Json = PoolTl.chromeTraceJson();
    TS.JsonValid = validateTraceJson(Json) &&
                   (ForkFreeOnly || (TS.ChildTracks > 0 && TS.ChildEvents > 0));
    if (!TraceOut.empty()) {
      std::ofstream Out(TraceOut, std::ios::binary | std::ios::trunc);
      if (Out)
        Out << Json;
      else
        std::fprintf(stderr, "bench_timeline: cannot write %s\n",
                     TraceOut.c_str());
    }
  }

  if (!Id.all()) {
    std::fprintf(stderr,
                 "IDENTITY VIOLATION: sweep %d parallel %d adaptive %d "
                 "resilient %d pooled %d journal %d\n",
                 Id.Sweep, Id.Parallel, Id.Adaptive, Id.Resilient, Id.Pooled,
                 Id.Journal);
    Status = 1;
  }
  if (!TS.JsonValid) {
    std::fprintf(stderr,
                 "TRACE VIOLATION: tracks %zu worker tracks %zu worker events "
                 "%llu json invalid or missing stitched worker spans\n",
                 TS.Tracks, TS.ChildTracks,
                 static_cast<unsigned long long>(TS.ChildEvents));
    Status = 1;
  }
  std::fprintf(stderr,
               "identity: %s; trace: %zu tracks (%zu stitched worker), "
               "%llu events, %llu chunks\n",
               Id.all() ? "ok" : "BROKEN", TS.Tracks, TS.ChildTracks,
               static_cast<unsigned long long>(TS.Events),
               static_cast<unsigned long long>(TS.Chunks));

  //===--------------------------------------------------------------------===//
  // 2. Overhead: no timeline vs disabled timeline vs enabled, best of 3.
  //===--------------------------------------------------------------------===//
  Overhead OH;
  {
    auto TimeSweep = [&](obs::Timeline *Tl) {
      double Best = 1e300;
      for (int Rep = 0; Rep < 3; ++Rep) {
        pipeline::SweepOptions O = SO;
        O.Timeline = Tl;
        double T0 = nowMs();
        pipeline::sweep(O, racyBody);
        Best = std::min(Best, nowMs() - T0);
      }
      return Best;
    };
    OH.NoneMs = TimeSweep(nullptr);
    obs::Timeline Disabled(/*Enabled=*/false);
    OH.DisabledMs = TimeSweep(&Disabled);
    obs::Timeline Enabled;
    OH.EnabledMs = TimeSweep(&Enabled);

    // Micro: the disabled fast path is one predictable branch per call;
    // the enabled path is a clock read + ring store (plus interning on
    // first sight of each name).
    constexpr uint64_t N = 50'000'000;
    obs::TimelineTrack *Null = nullptr;
    double T0 = nowMs();
    for (uint64_t I = 0; I < N; ++I) {
      obs::tlBegin(Null, "x");
      obs::tlEnd(Null);
    }
    OH.NullNsPerOp = (nowMs() - T0) * 1e6 / (2.0 * N);

    obs::Timeline MicroTl;
    obs::TimelineTrack *Track = MicroTl.track("micro");
    constexpr uint64_t M = 2'000'000;
    T0 = nowMs();
    for (uint64_t I = 0; I < M; ++I) {
      Track->begin("op");
      Track->end();
    }
    OH.RecordNsPerEvent = (nowMs() - T0) * 1e6 / (2.0 * M);
  }

  // The CI gate is deliberately loose (shared runners); the measured
  // number in the JSON is the one EXPERIMENTS.md quotes.
  const double DisabledBudgetPct = 10.0;
  if (OH.disabledPct() > DisabledBudgetPct) {
    std::fprintf(stderr,
                 "OVERHEAD VIOLATION: disabled timeline %.2f%% > %.1f%% "
                 "budget (none %.1fms disabled %.1fms)\n",
                 OH.disabledPct(), DisabledBudgetPct, OH.NoneMs,
                 OH.DisabledMs);
    Status = 1;
  }
  std::fprintf(stderr,
               "overhead: none %.1fms, disabled %.1fms (%+.2f%%), enabled "
               "%.1fms (%+.2f%%), null %.3f ns/op, record %.1f ns/event\n",
               OH.NoneMs, OH.DisabledMs, OH.disabledPct(), OH.EnabledMs,
               OH.enabledPct(), OH.NullNsPerOp, OH.RecordNsPerEvent);

  emitJson(stdout, OH, Id, TS, ForkFreeOnly);
  if (OutPath) {
    if (FILE *F = std::fopen(OutPath, "w")) {
      emitJson(F, OH, Id, TS, ForkFreeOnly);
      std::fclose(F);
    } else {
      std::fprintf(stderr, "bench_timeline: cannot write %s\n", OutPath);
      return 2;
    }
  }
  return Status;
}
