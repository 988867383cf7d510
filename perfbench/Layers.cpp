//===- perfbench/Layers.cpp - Per-layer probes -----------------------------===//
//
// Direct probes of each layer's public calls, for the traced run. Every
// probed call (or fixed batch of calls) is wrapped in a span; the numbers
// are then read back from the recorded spans as self times, so probe and
// workload figures come out of the same attribution.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "corpus/Patterns.h"
#include "lang/Interp.h"
#include "lang/Parser.h"
#include "lang/Ports.h"
#include "obs/Http.h"
#include "pipeline/Fingerprint.h"
#include "rt/GoSlice.h"
#include "rt/Instr.h"
#include "rt/Sync.h"
#include "support/Json.h"
#include "support/Shm.h"
#include "svc/Job.h"
#include "svc/Store.h"
#include "sweep/Checkpoint.h"
#include "sweep/Pool.h"
#include "sweep/Resilient.h"

#include <cstdio>
#include <new>

#include <unistd.h>

using namespace grs;

namespace perfbench {
namespace {

constexpr int SpawnBatch = 64, YieldBatch = 1000, AccessBatch = 4096,
              FingerprintBatch = 32, RenderBatch = 4, ShmBatch = 100;

using Profile = std::map<std::string, SpanProfile>;

/// Median self time of span \p Name divided by \p PerSpan, times \p Scale.
double perCall(const Profile &Prof, const std::string &Name, double PerSpan,
               double Scale, uint64_t *N = nullptr) {
  auto It = Prof.find(Name);
  if (It == Prof.end())
    return 0;
  if (N)
    *N = It->second.Count;
  return median(It->second.SelfUs) / PerSpan * Scale;
}

std::string readPort(const lang::LangPort &Port) {
  std::string Source;
  svc::JobStore::readFile(lang::findTestdataPath(Port.File), Source);
  return Source;
}

void probeRuntime(obs::TimelineTrack *T) {
  rt::RunOptions Unarmed;
  rt::RunOptions Armed;
  Armed.WatchdogMillis = 2'000;
  for (int Rep = 0; Rep < 300; ++Rep) {
    Unarmed.Seed = Armed.Seed = 1 + Rep;
    {
      obs::TimelineScope S(T, "rt.empty_run");
      rt::Runtime RT(Unarmed);
      RT.run([] {});
    }
    if (Rep % 20 == 0) {
      obs::TimelineScope S(T, "rt.armed_empty_run");
      rt::Runtime RT(Armed);
      RT.run([] {});
    }
    {
      obs::TimelineScope S(T, "rt.run_8_goroutines");
      rt::Runtime RT(Unarmed);
      RT.run([] {
        rt::WaitGroup Wg;
        for (int G = 0; G < 8; ++G) {
          Wg.add(1);
          rt::go("g", [&Wg] { Wg.done(); });
        }
        Wg.wait();
      });
    }
  }
  for (int Rep = 0; Rep < 60; ++Rep) {
    Unarmed.Seed = 1 + Rep;
    rt::Runtime RT(Unarmed);
    RT.run([T] {
      obs::TimelineScope S(T, "rt.go_x64");
      for (int G = 0; G < SpawnBatch; ++G)
        rt::go("g", [] {});
    });
    rt::Runtime RT2(Unarmed);
    RT2.run([T] {
      rt::WaitGroup Wg;
      obs::TimelineScope S(T, "rt.gosched_x1000");
      Wg.add(1);
      rt::go("peer", [&Wg] {
        for (int I = 0; I < YieldBatch / 2; ++I)
          rt::gosched();
        Wg.done();
      });
      for (int I = 0; I < YieldBatch / 2; ++I)
        rt::gosched();
      Wg.wait();
    });
  }
}

void probeRace(obs::TimelineTrack *T) {
  rt::RunOptions On, Off;
  Off.DetectRaces = false;
  for (int Rep = 0; Rep < 40; ++Rep) {
    On.Seed = Off.Seed = 1 + Rep;
    rt::Runtime RT(On);
    RT.run([T] {
      rt::Shared<int> X("x", 0);
      {
        obs::TimelineScope S(T, "race.Shared::store_x4096");
        for (int I = 0; I < AccessBatch; ++I)
          X.store(I);
      }
      int Sum = 0;
      {
        obs::TimelineScope S(T, "race.Shared::load_x4096");
        for (int I = 0; I < AccessBatch; ++I)
          Sum += X.load();
      }
      (void)Sum;
    });
    rt::Runtime RT2(Off);
    RT2.run([T] {
      rt::Shared<int> X("x", 0);
      obs::TimelineScope S(T, "race.nodetect_store_load_x8192");
      int Sum = 0;
      for (int I = 0; I < AccessBatch; ++I)
        X.store(I);
      for (int I = 0; I < AccessBatch; ++I)
        Sum += X.load();
      (void)Sum;
    });
    rt::Runtime RT3(On);
    RT3.run([T] {
      auto S = rt::GoSlice<int>::make("data", 2048);
      for (int Round = 0; Round < 4; ++Round) {
        for (size_t I = 0; I < 2048; ++I)
          S.set(I, Round);
        obs::TimelineScope G(T, "race.Detector::gcNow");
        rt::Runtime::current().det().gcNow();
      }
    });
  }
}

/// Detector on/off per access-heavy body; also the GC and shadow figures
/// of the detector-on runs.
void probeOverhead(uint64_t Seed, obs::TimelineTrack *T, MetricMap &Out,
                   PhaseResult &Checks) {
  std::vector<HeavyBody> Bodies = heavyBodies(Seed);
  uint64_t GcRuns = 0, Runs = 0, PeakCells = 0;
  for (int Rep = 0; Rep < 5; ++Rep)
    for (const HeavyBody &B : Bodies)
      for (bool Detect : {false, true}) {
        rt::Runtime RT(heavyRunOptions(1 + Rep, Detect));
        rt::RunResult R;
        {
          obs::TimelineScope S(T, std::string(Detect ? "heavy.on:" : "heavy.off:") +
                                      B.Name);
          R = RT.run(B.Body);
        }
        if (!R.clean())
          Checks.fail(std::string("overhead probe: ") + B.Name + " not clean");
        if (Detect) {
          ++Runs;
          GcRuns += RT.det().stats().GcRuns;
          PeakCells =
              std::max(PeakCells, RT.det().footprint().PeakShadowCells);
        }
      }
  Out["race.gc_runs"] = {static_cast<double>(GcRuns) /
                             static_cast<double>(Runs),
                         "count", Runs};
  Out["race.shadow_cells_peak"] = {static_cast<double>(PeakCells), "count",
                                   0};
}

/// Fingerprint and render every report of a few racy runs per pattern;
/// both are pure functions of the report, so repeats must agree.
void probePipeline(obs::TimelineTrack *T, PhaseResult &Checks) {
  uint64_t Mismatches = 0;
  for (const corpus::Pattern &P : corpus::allPatterns())
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      rt::RunOptions O;
      O.Seed = Seed;
      O.OnReport = [&](const race::Detector &D, const race::RaceReport &R) {
        uint64_t Fp = pipeline::raceFingerprint(D.interner(), R);
        std::string Text = race::reportToString(D.interner(), R);
        {
          obs::TimelineScope S(T, "pipeline.raceFingerprint_x32");
          for (int I = 0; I < FingerprintBatch; ++I)
            Mismatches += pipeline::raceFingerprint(D.interner(), R) != Fp;
        }
        obs::TimelineScope S(T, "pipeline.reportToString_x4");
        for (int I = 0; I < RenderBatch; ++I)
          Mismatches += race::reportToString(D.interner(), R) != Text;
      };
      P.RunRacy(O);
    }
  if (Mismatches)
    Checks.fail("pipeline probe: fingerprint or render not deterministic");
}

void probeLang(obs::TimelineTrack *T, PhaseResult &Checks) {
  for (const lang::LangPort &Port : lang::langPorts()) {
    std::string Source = readPort(Port);
    std::shared_ptr<const lang::Program> Prog;
    for (int Rep = 0; Rep < 5; ++Rep) {
      obs::TimelineScope S(T, "lang.parseProgram");
      lang::ParseResult R = lang::parseProgram(Source, Port.File);
      if (!R.ok())
        Checks.fail("lang probe: " + Port.File + " does not parse");
      Prog = R.Prog;
    }
    const corpus::Pattern *Twin = corpus::findPattern(Port.TwinId);
    auto Run = lang::runner(Prog);
    for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
      rt::RunOptions O;
      O.Seed = Seed;
      {
        obs::TimelineScope S(T, "lang.run:" + Port.Id);
        Run(O);
      }
      if (Twin) {
        obs::TimelineScope S(T, "lang.twin:" + Port.Id);
        Twin->RunRacy(O);
      }
    }
  }
}

void probeSweep(const Config &Cfg, obs::TimelineTrack *T,
                PhaseResult &Checks) {
  const std::vector<corpus::Pattern> &All = corpus::allPatterns();
  std::vector<sweep::SlotRecord> Journal;
  for (const corpus::Pattern &P : All) {
    sweep::ResilientOptions O;
    O.NumSeeds = 16;
    O.Body = P.RunRacy;
    std::vector<sweep::SlotRecord> Slots;
    for (uint64_t Slot = 0; Slot < O.NumSeeds; ++Slot) {
      obs::TimelineScope S(T, "sweep.runResilientSlot");
      Slots.push_back(sweep::runResilientSlot(O, Slot));
    }
    sweep::ResilientResult Merged;
    {
      obs::TimelineScope S(T, "sweep.mergeSlotRecords");
      sweep::mergeSlotRecords(Slots, Merged);
    }
    if (!(Merged.Sweep == sweep::resilient(O).Sweep))
      Checks.fail("sweep probe: merged slots != resilient for " + P.Id);
    Journal.insert(Journal.end(), Slots.begin(), Slots.end());
  }

  // Thread scaling over a fixed slice of the corpus.
  for (int Rep = 0; Rep < 2; ++Rep)
    for (unsigned Threads : {1u, 2u}) {
      obs::TimelineScope S(T, "sweep.resilient_threads" +
                                  std::to_string(Threads));
      for (size_t I = 0; I < 16 && I < All.size(); ++I)
        for (bool Fixed : {false, true}) {
          sweep::ResilientOptions O;
          O.NumSeeds = 32;
          O.Threads = Threads;
          O.Body = Fixed ? All[I].RunFixed : All[I].RunRacy;
          sweep::resilient(O);
        }
    }

  std::string Path =
      Cfg.WorkDir + "/probe-" + std::to_string(::getpid()) + ".ckpt";
  sweep::CheckpointWriter W;
  if (!W.create(Path, {1, Journal.size(), 0})) {
    Checks.fail("sweep probe: cannot create journal");
  } else {
    for (const sweep::SlotRecord &R : Journal) {
      obs::TimelineScope S(T, "sweep.CheckpointWriter::append");
      if (!W.append(R))
        Checks.fail("sweep probe: journal append failed");
    }
    W.close();
    sweep::CheckpointLoad Load;
    std::string Error;
    if (!sweep::loadCheckpoint(Path, Load, Error) ||
        Load.Records.size() != Journal.size())
      Checks.fail("sweep probe: journal does not read back");
  }
  std::remove(Path.c_str());
}

/// The svc-jobs pattern spec, run directly on a single-use pool and
/// in-process.
void probePool(obs::TimelineTrack *T, PhaseResult &Checks) {
  std::string Spec =
      "{\"body\":{\"kind\":\"pattern\",\"pattern\":\"" +
      corpus::allPatterns()[0].Id +
      "\",\"variant\":\"racy\"},\"num_seeds\":24,\"executor\":\"pool\"}";
  support::Json V;
  svc::JobSpec JS;
  sweep::ResilientOptions RO;
  std::string Error;
  if (!support::parseJson(Spec, V, Error) || !svc::JobSpec::parse(V, JS, Error) ||
      !JS.resolve(RO, Error)) {
    Checks.fail("pool probe: spec does not resolve: " + Error);
    return;
  }
  RO.Threads = 2;
  sweep::PoolOptions PO;
  PO.Base = RO;
  for (int Rep = 0; Rep < 3; ++Rep) {
    sweep::PoolResult Pooled;
    sweep::ResilientResult InProc;
    {
      obs::TimelineScope S(T, "sweep.pooled");
      Pooled = sweep::pooled(PO);
    }
    {
      obs::TimelineScope S(T, "sweep.resilient_inproc");
      InProc = sweep::resilient(RO);
    }
    if (!(Pooled.Res == InProc))
      Checks.fail("pool probe: pooled != in-process resilient");
  }
}

void probeShm(obs::TimelineTrack *T, PhaseResult &Checks) {
  constexpr size_t Capacity = 256 << 10;
  support::ShmRegion Region;
  if (!Region.map(4096 + Capacity)) {
    Checks.fail("shm probe: cannot map shared memory");
    return;
  }
  auto *Cursors = new (Region.data()) support::ShmRingCursors();
  uint8_t *Data = Region.data() + 4096;
  sweep::SlotRecord Rec;
  Rec.Slot = 7;
  Rec.Seed = 8;
  Rec.RaceCount = 1;
  Rec.Reports.push_back({0x1234, 1, std::string(300, 'r')});
  std::vector<uint8_t> Payload, Frame, Drained;
  sweep::encodeSlotRecord(Payload, Rec);
  sweep::encodeFrame(Frame, sweep::FrameKind::SlotRecord, Payload.data(),
                     Payload.size());
  std::atomic<uint32_t> Stop{0};
  bool UseFutex = support::futexAvailable();
  sweep::FrameParser Parser;
  uint64_t Frames = 0;
  for (int Batch = 0; Batch < 40; ++Batch) {
    obs::TimelineScope S(T, "support.shm_frame_rtt_x100");
    for (int I = 0; I < ShmBatch; ++I) {
      support::shmRingProduce(*Cursors, Data, Capacity, Frame.data(),
                              Frame.size(), &Stop, UseFutex, nullptr,
                              nullptr);
      Drained.clear();
      support::shmRingDrain(*Cursors, Data, Capacity, Drained, UseFutex);
      Parser.feed(Drained.data(), Drained.size());
      sweep::FrameKind Kind;
      const uint8_t *At = nullptr;
      size_t Size = 0;
      Frames += Parser.next(Kind, At, Size) ==
                    sweep::FrameParser::Status::Frame &&
                Size == Payload.size();
    }
  }
  if (Frames != 40u * ShmBatch)
    Checks.fail("shm probe: frames lost in the ring");
  Cursors->~ShmRingCursors();
}

void probeSvcAndObs(const Config &Cfg, obs::TimelineTrack *T,
                    PhaseResult &Checks) {
  const lang::LangPort &Port = lang::langPorts()[0];
  support::Json Body = support::Json::object();
  Body.set("kind", support::Json::string("grs"));
  Body.set("source", support::Json::string(readPort(Port)));
  support::Json Spec = support::Json::object();
  Spec.set("body", std::move(Body));
  Spec.set("num_seeds", support::Json::unsignedInt(24));
  std::string SpecText = support::renderJson(Spec);
  for (int Rep = 0; Rep < 300; ++Rep) {
    obs::TimelineScope S(T, "svc.JobSpec::parse+resolve");
    support::Json V;
    svc::JobSpec JS;
    sweep::ResilientOptions RO;
    std::string Error;
    if (!support::parseJson(SpecText, V, Error) ||
        !svc::JobSpec::parse(V, JS, Error) || !JS.resolve(RO, Error))
      Checks.fail("svc probe: spec does not resolve");
  }

  std::string Dir =
      Cfg.WorkDir + "/probe-store-" + std::to_string(::getpid());
  {
    svc::JobStore Store(Dir);
    std::string Error;
    if (!Store.init(Error))
      Checks.fail("svc probe: " + Error);
    for (int Rep = 0; Rep < 30; ++Rep) {
      obs::TimelineScope S(T, "svc.JobStore::writeAtomic");
      if (!Store.writeAtomic(Store.paths("job-000001").Spec, SpecText, Error))
        Checks.fail("svc probe: " + Error);
    }
  }
  removeTree(Dir);

  obs::MetricsServer Server;
  if (!Server.start(0)) {
    Checks.fail("obs probe: cannot bind");
    return;
  }
  for (int Rep = 0; Rep < 300; ++Rep) {
    obs::TimelineScope S(T, "obs.GET_/healthz");
    if (httpRequest(Server.port(), "GET", "/healthz").Status != 200)
      Checks.fail("obs probe: /healthz did not answer 200");
  }
  Server.stop();
}

} // namespace

void runLayerProbes(const Config &Cfg, obs::Timeline &Trace, MetricMap &Out,
                    PhaseResult &Checks) {
  obs::TimelineTrack *T = Trace.track("probes");
  probeRuntime(T);
  probeRace(T);
  probeOverhead(Cfg.Seed, T, Out, Checks);
  probePipeline(T, Checks);
  probeLang(T, Checks);
  probeSweep(Cfg, T, Checks);
  probePool(T, Checks);
  probeShm(T, Checks);
  probeSvcAndObs(Cfg, T, Checks);

  Profile Prof = profileSpans(Trace);
  auto Put = [&](const char *Metric, const std::string &Span, double PerSpan,
                 double Scale, const char *Unit) {
    uint64_t N = 0;
    double V = perCall(Prof, Span, PerSpan, Scale, &N);
    Out[Metric] = {V, Unit, N * static_cast<uint64_t>(PerSpan)};
  };
  Put("rt.empty_run_us", "rt.empty_run", 1, 1, "us");
  Put("rt.run_us", "rt.run_8_goroutines", 1, 1, "us");
  Put("rt.spawn_us", "rt.go_x64", SpawnBatch, 1, "us");
  Put("rt.yield_ns", "rt.gosched_x1000", YieldBatch, 1e3, "ns");
  Out["rt.watchdog_arm_us"] = {perCall(Prof, "rt.armed_empty_run", 1, 1) -
                                   Out["rt.empty_run_us"].Value,
                               "us", Prof["rt.armed_empty_run"].Count};
  Put("race.write_ns", "race.Shared::store_x4096", AccessBatch, 1e3, "ns");
  Put("race.read_ns", "race.Shared::load_x4096", AccessBatch, 1e3, "ns");
  Put("race.access_nodetect_ns", "race.nodetect_store_load_x8192",
      2 * AccessBatch, 1e3, "ns");
  Put("race.gc_us", "race.Detector::gcNow", 1, 1, "us");
  Put("pipeline.fingerprint_ns", "pipeline.raceFingerprint_x32",
      FingerprintBatch, 1e3, "ns");
  Put("pipeline.render_us", "pipeline.reportToString_x4", RenderBatch, 1,
      "us");
  Put("lang.parse_us", "lang.parseProgram", 1, 1, "us");
  Put("sweep.slot_us", "sweep.runResilientSlot", 1, 1, "us");
  Put("sweep.merge_us", "sweep.mergeSlotRecords", 1, 1, "us");
  Put("sweep.journal_append_us", "sweep.CheckpointWriter::append", 1, 1, "us");
  Put("sweep.pool_job_ms", "sweep.pooled", 1, 1e-3, "ms");
  Put("support.shm_frame_rtt_us", "support.shm_frame_rtt_x100", ShmBatch, 1,
      "us");
  Put("svc.store_write_us", "svc.JobStore::writeAtomic", 1, 1, "us");
  Put("svc.spec_parse_us", "svc.JobSpec::parse+resolve", 1, 1, "us");
  Put("obs.http_rtt_us", "obs.GET_/healthz", 1, 1, "us");

  auto Ratio = [&](const std::string &Num, const std::string &Den) {
    double D = perCall(Prof, Den, 1, 1);
    return D > 0 ? perCall(Prof, Num, 1, 1) / D : 0.0;
  };
  Out["sweep.thread_scaling_x"] = {
      Ratio("sweep.resilient_threads1", "sweep.resilient_threads2"), "x", 2};
  Out["sweep.pool_over_inproc_x"] = {
      Ratio("sweep.pooled", "sweep.resilient_inproc"), "x", 3};

  std::vector<double> Overheads;
  for (const HeavyBody &B : heavyBodies(Cfg.Seed)) {
    double X = Ratio(std::string("heavy.on:") + B.Name,
                     std::string("heavy.off:") + B.Name);
    Overheads.push_back(X);
    std::printf("detector overhead %-22s %6.2fx  (paper: p95 4x; TSan "
                "2-20x)\n",
                B.Name, X);
  }
  Out["race.detect_overhead_x"] = {median(Overheads), "x", Overheads.size()};

  std::vector<double> LangRuns, InterpRatios;
  for (const lang::LangPort &Port : lang::langPorts()) {
    auto It = Prof.find("lang.run:" + Port.Id);
    if (It != Prof.end())
      LangRuns.insert(LangRuns.end(), It->second.SelfUs.begin(),
                      It->second.SelfUs.end());
    if (Prof.count("lang.twin:" + Port.Id))
      InterpRatios.push_back(
          Ratio("lang.run:" + Port.Id, "lang.twin:" + Port.Id));
  }
  Out["lang.run_us"] = {median(LangRuns), "us", LangRuns.size()};
  Out["lang.interp_over_compiled_x"] = {median(InterpRatios), "x",
                                        InterpRatios.size()};
}

} // namespace perfbench
