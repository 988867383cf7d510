//===- bench/bench_trace.cpp - Trace capture / replay / sweep scaling -----===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// Measures the record/replay costs of src/trace/ and the parallel
// sweep's scaling:
//
//  1. capture overhead — wall-clock ratio of a seed sweep with a
//     TraceSink teeing every detector event vs the same sweep untraced;
//  2. offline replay throughput — decoded events applied to a fresh
//     detector per second (the "analyze at scale without re-running the
//     scheduler" rate);
//  3. sweep scaling — wall-clock speedup of the in-process parallel
//     executor (sweep::resilient, one attempt per seed) over the
//     single-threaded pipeline::sweep baseline for the same seed range.
//     The two results must compare equal (operator==, nothing
//     quarantined); the exit status says whether they did.
//
// Results are emitted as a single JSON object on stdout (machine
// consumption; EXPERIMENTS.md records representative numbers); progress
// notes go to stderr.
//
// Usage: bench_trace [num_seeds] [threads] [replay_reps]
//
//===----------------------------------------------------------------------===//

#include "trace/Offline.h"
#include "trace/Trace.h"

#include "corpus/Patterns.h"
#include "pipeline/Sweep.h"
#include "rt/Channel.h"
#include "rt/Instr.h"
#include "rt/Sync.h"
#include "sweep/Resilient.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace grs;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// The measured workload: a producer/consumer service with locked
/// counters, channel handoffs, and one schedule-dependent race — a few
/// thousand instrumented events per run, so a 256-seed sweep is ~1M
/// events but still finishes quickly in CI.
void workloadBody() {
  rt::Shared<int> Counter("counter");
  rt::Shared<int> Racy("stats.last");
  rt::Mutex Mu("mu");
  rt::Chan<int> Work(4, "work");
  rt::WaitGroup Wg("wg");
  constexpr int NumWorkers = 3;
  constexpr int NumItems = 24;

  Wg.add(NumWorkers);
  for (int W = 0; W < NumWorkers; ++W)
    rt::go("worker", [&] {
      for (;;) {
        auto [Item, Ok] = Work.recv();
        if (!Ok)
          break;
        for (int I = 0; I < 8; ++I) {
          rt::LockGuard<rt::Mutex> G(Mu);
          Counter = Counter + Item;
        }
        Racy = Item; // Unsynchronized write: races with main's read.
      }
      Wg.done();
    });
  for (int I = 1; I <= NumItems; ++I)
    Work.send(I);
  int Last = Racy;
  (void)Last;
  Work.close();
  Wg.wait();
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t NumSeeds = Argc > 1 ? std::strtoull(Argv[1], nullptr, 10) : 256;
  unsigned Threads = Argc > 2
                         ? static_cast<unsigned>(std::strtoul(Argv[2], nullptr, 10))
                         : 8;
  int ReplayReps = Argc > 3 ? std::atoi(Argv[3]) : 5;
  if (Threads == 0)
    Threads = std::thread::hardware_concurrency();

  //===--------------------------------------------------------------------===//
  // 1. Capture overhead
  //===--------------------------------------------------------------------===//
  std::fprintf(stderr, "[bench_trace] capture overhead: %llu seeds...\n",
               (unsigned long long)NumSeeds);

  auto T0 = std::chrono::steady_clock::now();
  for (uint64_t Seed = 1; Seed <= NumSeeds; ++Seed) {
    rt::Runtime RT(rt::withSeed(Seed));
    RT.run(workloadBody);
  }
  double BaseSeconds = secondsSince(T0);

  uint64_t TracedEvents = 0, TracedBytes = 0;
  T0 = std::chrono::steady_clock::now();
  for (uint64_t Seed = 1; Seed <= NumSeeds; ++Seed) {
    trace::TraceSink Sink;
    rt::RunOptions Opts = rt::withSeed(Seed);
    Opts.Trace = &Sink;
    rt::Runtime RT(Opts);
    RT.run(workloadBody);
    TracedEvents += Sink.eventCount();
    TracedBytes += Sink.bytes().size();
  }
  double TracedSeconds = secondsSince(T0);
  double OverheadRatio = BaseSeconds > 0 ? TracedSeconds / BaseSeconds : 0;

  //===--------------------------------------------------------------------===//
  // 2. Offline replay throughput
  //===--------------------------------------------------------------------===//
  std::fprintf(stderr, "[bench_trace] replay throughput: %d reps...\n",
               ReplayReps);
  trace::TraceSink Sink;
  {
    rt::RunOptions Opts = rt::withSeed(1);
    Opts.Trace = &Sink;
    rt::Runtime RT(Opts);
    RT.run(workloadBody);
  }
  trace::Trace Decoded = trace::decodeOrDie(Sink.bytes());

  uint64_t ReplayedEvents = 0;
  T0 = std::chrono::steady_clock::now();
  for (int Rep = 0; Rep < ReplayReps; ++Rep) {
    trace::OfflineDetector Offline;
    if (!Offline.replay(Decoded)) {
      std::fprintf(stderr, "[bench_trace] replay failed: %s\n",
                   Offline.error().c_str());
      return 1;
    }
    ReplayedEvents += Offline.eventsReplayed();
  }
  double ReplaySeconds = secondsSince(T0);
  double EventsPerSec =
      ReplaySeconds > 0 ? ReplayedEvents / ReplaySeconds : 0;

  //===--------------------------------------------------------------------===//
  // 3. Sweep scaling
  //===--------------------------------------------------------------------===//
  std::fprintf(stderr, "[bench_trace] sweep scaling: %llu seeds x %u threads...\n",
               (unsigned long long)NumSeeds, Threads);
  pipeline::SweepOptions SerialOpts;
  SerialOpts.NumSeeds = NumSeeds;
  T0 = std::chrono::steady_clock::now();
  pipeline::SweepResult Serial = pipeline::sweep(SerialOpts, workloadBody);
  double SerialSeconds = secondsSince(T0);

  sweep::ResilientOptions ParOpts;
  ParOpts.NumSeeds = NumSeeds;
  ParOpts.Threads = Threads;
  ParOpts.MaxAttempts = 1;
  ParOpts.Body = corpus::hostBody(workloadBody);
  T0 = std::chrono::steady_clock::now();
  sweep::ResilientResult Parallel = sweep::resilient(ParOpts);
  double ParallelSeconds = secondsSince(T0);
  double Speedup = ParallelSeconds > 0 ? SerialSeconds / ParallelSeconds : 0;

  bool ResultsMatch = Parallel.Sweep == Serial && Parallel.Quarantined.empty();

  std::printf(
      "{\n"
      "  \"seeds\": %llu,\n"
      "  \"threads\": %u,\n"
      "  \"hardware_concurrency\": %u,\n"
      "  \"capture\": {\n"
      "    \"base_seconds\": %.4f,\n"
      "    \"traced_seconds\": %.4f,\n"
      "    \"overhead_ratio\": %.3f,\n"
      "    \"events\": %llu,\n"
      "    \"bytes\": %llu,\n"
      "    \"bytes_per_event\": %.2f\n"
      "  },\n"
      "  \"replay\": {\n"
      "    \"events\": %llu,\n"
      "    \"seconds\": %.4f,\n"
      "    \"events_per_sec\": %.0f\n"
      "  },\n"
      "  \"sweep\": {\n"
      "    \"serial_seconds\": %.4f,\n"
      "    \"parallel_seconds\": %.4f,\n"
      "    \"speedup\": %.2f,\n"
      "    \"serial_findings\": %zu,\n"
      "    \"parallel_findings\": %zu,\n"
      "    \"results_match\": %s\n"
      "  }\n"
      "}\n",
      (unsigned long long)NumSeeds, Threads,
      std::thread::hardware_concurrency(), BaseSeconds, TracedSeconds,
      OverheadRatio, (unsigned long long)TracedEvents,
      (unsigned long long)TracedBytes,
      TracedEvents ? (double)TracedBytes / (double)TracedEvents : 0.0,
      (unsigned long long)ReplayedEvents, ReplaySeconds, EventsPerSec,
      SerialSeconds, ParallelSeconds, Speedup, Serial.Findings.size(),
      Parallel.Sweep.Findings.size(), ResultsMatch ? "true" : "false");
  return ResultsMatch ? 0 : 1;
}
