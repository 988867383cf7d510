//===- perfbench/AccessHeavy.cpp - The access-heavy workload ---------------===//
//
// The §3.5 overhead case: long race-free bodies run with the HappensBefore
// detector on, so the detector and the rt access path do almost all the
// work. Three bodies are bench_overhead's heavy tests (slice write sweep,
// map set-then-get churn, mutex-guarded fan-out); the fourth puts RWMutex
// readers beside a writer on the same shadow cells. One job is one pass
// over the four bodies on each CPU the process may use, one CPU after
// another, run serially by one client thread. On a shared 4-CPU virtual
// machine, one or two CPUs at a time ran the same body up to 1.7x slower
// than the others, for minutes, and a thread tends to stay on its CPU:
// with passes left where the scheduler put them, pass times were bimodal
// and their median jumped between runs. Visiting every CPU in each job
// gives every job the same mix.
//
// Oracle: every run is clean (no reports, no leak, no panic) and makes
// exactly the number of instrumented accesses a reference run of the same
// body makes (the bodies are schedule-independent in their access count);
// that count is at least the accesses the program itself spells out.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "rt/GoMap.h"
#include "rt/GoSlice.h"
#include "rt/Instr.h"
#include "rt/Sync.h"
#include "support/Rng.h"

#include <algorithm>
#include <memory>
#include <thread>

using namespace grs;

namespace perfbench {

std::vector<HeavyBody> heavyBodies(uint64_t Seed) {
  // The sweep covers 1024 cells 16 times rather than bench_overhead's 4096
  // cells 4 times (the same 16K writes): at 4096 cells the detector's
  // shadow state no longer sat comfortably in cache, and on a shared
  // virtual machine the body's run time then jumped between 3.4 and 5.7 ms
  // for stretches of a run.
  constexpr size_t SweepLen = 1024, SweepRounds = 16, KeyStreamLen = 4096,
                   MapKeys = 1024, TableLen = 256;
  support::Rng R(Seed * 0x9e3779b97f4a7c15ULL + 1);
  // Inputs: a write order for the sweep, a key stream for the churn, and
  // read offsets for the read-mostly body.
  auto Order = std::make_shared<std::vector<size_t>>(SweepLen);
  for (size_t I = 0; I < SweepLen; ++I)
    (*Order)[I] = I;
  for (size_t I = SweepLen - 1; I > 0; --I)
    std::swap((*Order)[I], (*Order)[R.nextBelow(I + 1)]);
  auto Keys = std::make_shared<std::vector<int>>(KeyStreamLen);
  for (int &K : *Keys)
    K = static_cast<int>(R.nextBelow(MapKeys));

  std::vector<HeavyBody> Bodies;
  Bodies.push_back({"slice-write-sweep",
                    [Order] {
                      auto S = rt::GoSlice<int>::make("data", SweepLen);
                      for (size_t Round = 0; Round < SweepRounds; ++Round)
                        for (size_t I : *Order)
                          S.set(I, static_cast<int>(Round + I));
                    },
                    SweepRounds * SweepLen});
  Bodies.push_back({"map-set-get-churn",
                    [Keys] {
                      rt::GoMap<int, int> M("m");
                      for (size_t I = 0; I < Keys->size(); ++I)
                        M.set((*Keys)[I], static_cast<int>(I));
                      for (int K : *Keys)
                        (void)M.get(K);
                    },
                    2 * KeyStreamLen});
  Bodies.push_back({"mutex-fan-out",
                    [] {
                      auto X = std::make_shared<rt::Shared<int>>("x", 0);
                      rt::WaitGroup Wg;
                      rt::Mutex Mu;
                      for (int W = 0; W < 4; ++W) {
                        Wg.add(1);
                        rt::go("w", [&, X] {
                          for (int I = 0; I < 512; ++I) {
                            Mu.lock();
                            X->store(X->load() + 1);
                            Mu.unlock();
                          }
                          Wg.done();
                        });
                      }
                      Wg.wait();
                    },
                    4 * 512 * 2});
  Bodies.push_back({"rwmutex-read-mostly",
                    [Order] {
                      auto T = std::make_shared<rt::GoSlice<int>>(
                          rt::GoSlice<int>::make("table", TableLen));
                      rt::RWMutex Mu;
                      rt::WaitGroup Wg;
                      for (size_t Reader = 0; Reader < 6; ++Reader) {
                        Wg.add(1);
                        rt::go("reader", [&, T, Order, Reader] {
                          int Sum = 0;
                          for (size_t It = 0; It < 48; ++It) {
                            Mu.rlock();
                            for (size_t K = 0; K < 16; ++K) {
                              size_t At = ((Reader * 48 + It) * 16 + K) %
                                          SweepLen;
                              Sum += T->get((*Order)[At] % TableLen);
                            }
                            Mu.runlock();
                          }
                          (void)Sum;
                          Wg.done();
                        });
                      }
                      Wg.add(1);
                      rt::go("writer", [&, T] {
                        for (int It = 0; It < 24; ++It) {
                          Mu.lock();
                          for (size_t K = 0; K < 8; ++K)
                            T->set((It * 8 + K) % TableLen, It);
                          Mu.unlock();
                        }
                        Wg.done();
                      });
                      Wg.wait();
                    },
                    6 * 48 * 16 + 24 * 8});
  return Bodies;
}

rt::RunOptions heavyRunOptions(uint64_t Seed, bool Detect) {
  rt::RunOptions O;
  O.Seed = Seed;
  O.DetectRaces = Detect;
  O.Detector.Mode = race::DetectMode::HappensBefore;
  O.PreemptProbability = 0.01; // long tests yield occasionally
  return O;
}

namespace {

constexpr unsigned Clients = 1;
constexpr int SetupRounds = 7;

/// What one client saw; merged after the clients joined.
struct ClientTally {
  std::vector<double> JobMs, JobEnds;
  uint64_t Runs = 0, Accesses = 0, Steps = 0, Fast = 0, GcRuns = 0,
           PeakCells = 0;
  /// Per body: the smallest and largest access count of any run.
  std::vector<uint64_t> MinAccesses, MaxAccesses;
  PhaseResult Errors;
};

} // namespace

PhaseResult runAccessHeavy(const Config &Cfg, double Seconds,
                           obs::Timeline *Trace, std::vector<double> &Setup) {
  PhaseResult P;
  std::vector<HeavyBody> Bodies;
  uint64_t FirstSeed = 1;
  timeSetUp(SetupRounds, Setup, [&] {
    FirstSeed = 1 + support::Rng(Cfg.Seed).nextBelow(1'000'000);
    Bodies = heavyBodies(Cfg.Seed);
    // Warm-up: one run of each body, so lazy initialisation and allocator
    // growth are paid before timing starts.
    for (const HeavyBody &B : Bodies)
      rt::Runtime(heavyRunOptions(FirstSeed, true)).run(B.Body);
    return true;
  });

  std::vector<int> Cpus = allowedCpus();
  if (Cpus.empty())
    Cpus.push_back(-1); // one pass a job, wherever the scheduler puts it
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline =
      Start + std::chrono::microseconds(static_cast<int64_t>(Seconds * 1e6));
  std::vector<ClientTally> Tallies(Clients);
  auto Client = [&](unsigned C) {
    ClientTally &T = Tallies[C];
    T.MinAccesses.assign(Bodies.size(), UINT64_MAX);
    T.MaxAccesses.assign(Bodies.size(), 0);
    obs::TimelineTrack *Track =
        Trace ? Trace->track("heavy-client-" + std::to_string(C)) : nullptr;
    // Clients take alternate run seeds.
    for (uint64_t RunSeq = C; T.JobMs.empty() || Clock::now() < Deadline;) {
      double JobMs = 0;
      for (size_t Step = 0; Step < Cpus.size() * Bodies.size();
           ++Step, RunSeq += Clients) {
        size_t B = Step % Bodies.size();
        if (B == 0 && Cpus[Step / Bodies.size()] >= 0)
          pinThisThread({Cpus[Step / Bodies.size()]});
        rt::Runtime RT(heavyRunOptions(FirstSeed + RunSeq, true));
        Clock::time_point T0 = Clock::now();
        rt::RunResult R;
        {
          obs::TimelineScope Span(Track, "rt.run", idArgs("run", RunSeq));
          R = RT.run(Bodies[B].Body);
        }
        JobMs += millisSince(T0);
        ++T.Runs;
        const race::DetectorStats &S = RT.det().stats();
        uint64_t Accesses = S.Reads + S.Writes;
        T.MinAccesses[B] = std::min(T.MinAccesses[B], Accesses);
        T.MaxAccesses[B] = std::max(T.MaxAccesses[B], Accesses);
        T.Accesses += Accesses;
        T.Fast += S.SameEpochFastPath;
        T.GcRuns += S.GcRuns;
        T.Steps += R.Steps;
        T.PeakCells =
            std::max(T.PeakCells, RT.det().footprint().PeakShadowCells);
        if (!R.clean())
          T.Errors.fail(std::string(Bodies[B].Name) + ": run not clean");
      }
      T.JobMs.push_back(JobMs);
      T.JobEnds.push_back(secondsSince(Start));
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back(Client, C);
  for (std::thread &T : Threads)
    T.join();

  uint64_t Steps = 0, Fast = 0, GcRuns = 0, PeakCells = 0;
  std::vector<uint64_t> MinAccesses(Bodies.size(), UINT64_MAX),
      MaxAccesses(Bodies.size(), 0);
  for (const ClientTally &T : Tallies) {
    P.JobMs.insert(P.JobMs.end(), T.JobMs.begin(), T.JobMs.end());
    P.JobEnds.insert(P.JobEnds.end(), T.JobEnds.begin(), T.JobEnds.end());
    P.Runs += T.Runs;
    P.Accesses += T.Accesses;
    Steps += T.Steps;
    Fast += T.Fast;
    GcRuns += T.GcRuns;
    PeakCells = std::max(PeakCells, T.PeakCells);
    for (size_t B = 0; B < Bodies.size(); ++B) {
      MinAccesses[B] = std::min(MinAccesses[B], T.MinAccesses[B]);
      MaxAccesses[B] = std::max(MaxAccesses[B], T.MaxAccesses[B]);
    }
    P.Failed += T.Errors.Failed;
    P.Failures.insert(P.Failures.end(), T.Errors.Failures.begin(),
                      T.Errors.Failures.end());
  }
  P.Jobs = P.JobMs.size();
  P.RateBlock = P.LatencyBlock = 25;
  P.Attempted = P.Runs;

  // Oracle: one reference run per body, outside the timed window.
  for (size_t B = 0; B < Bodies.size(); ++B) {
    rt::Runtime RT(heavyRunOptions(1, true));
    rt::RunResult R = RT.run(Bodies[B].Body);
    const race::DetectorStats &S = RT.det().stats();
    uint64_t Want = S.Reads + S.Writes;
    if (!R.clean() || Want < Bodies[B].ProgramAccesses)
      P.fail(std::string(Bodies[B].Name) + ": reference run is wrong");
    if (MinAccesses[B] != Want || MaxAccesses[B] != Want)
      P.fail(std::string(Bodies[B].Name) +
             ": access count differs from the reference run");
  }

  P.Layer["rt.steps"] = {static_cast<double>(Steps) /
                             static_cast<double>(P.Runs),
                         "count", P.Runs};
  P.Layer["race.fastpath_ratio"] = {
      static_cast<double>(Fast) / static_cast<double>(P.Accesses), "ratio",
      0};
  P.Layer["race.gc_runs"] = {static_cast<double>(GcRuns) /
                                 static_cast<double>(P.Runs),
                             "count", P.Runs};
  P.Layer["race.shadow_cells_peak"] = {static_cast<double>(PeakCells),
                                       "count", 0};
  // No sweep and no reports on this workload: those layers do no work.
  P.Layer["pipeline.reports"] = {0.0, "count", 0};
  P.Layer["pipeline.dedup_ratio"] = {0.0, "ratio", 0};
  P.Layer["sweep.retries"] = {0.0, "count", 0};
  P.Layer["sweep.quarantined"] = {0.0, "count", 0};
  return P;
}

} // namespace perfbench
