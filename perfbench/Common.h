//===- perfbench/Common.h - Shared benchmark plumbing -----------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the run configuration, the result of one
/// measured phase, span recording around public calls (obs::Timeline),
/// self-time attribution over the recorded spans, and the process
/// probes (peak RSS, live children) the hygiene checks rely on.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_PERFBENCH_COMMON_H
#define GRS_PERFBENCH_COMMON_H

#include "obs/Timeline.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

namespace obs = grs::obs;
using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}
inline double millisSince(Clock::time_point T0) {
  return secondsSince(T0) * 1e3;
}
/// Command-line configuration of one benchmark process.
struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory inside the checkout for state dirs, journals and
  /// the span export; removed by whoever created each entry.
  std::string WorkDir;
};

/// One named number, as printed.
struct Metric {
  double Value = 0;
  std::string Unit;
  /// Samples behind the number (0 for counts and ratios of totals).
  uint64_t N = 0;
};

/// Ordered so output is stable.
using MetricMap = std::map<std::string, Metric>;

/// What one measured phase of a workload produced.
struct PhaseResult {
  /// Completed runs (sweep slots / body executions).
  uint64_t Runs = 0;
  /// Instrumented reads + writes performed by those runs.
  uint64_t Accesses = 0;
  /// Completed jobs and their latencies (ms), one sample per job.
  uint64_t Jobs = 0;
  std::vector<double> JobMs;
  /// When each job completed, seconds after the timed loop started, and
  /// how many consecutive completions make one block for medianBlockRate.
  std::vector<double> JobEnds;
  size_t RateBlock = 1;
  /// Consecutive completions per block for the job latency quantiles
  /// (medianBlockQuantile); 0 pools every job.
  size_t LatencyBlock = 0;
  /// Operations attempted and failed (oracle mismatches, refused
  /// admissions, failed or quarantined jobs, timeouts, hygiene).
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
  /// Highest sampled resident set of this process plus its children, MiB
  /// (0 when the workload forks nothing; getrusage covers the process).
  double PeakRssMiB = 0;
  /// Workload-side per-layer quantities (counts, ratios, phase latencies).
  MetricMap Layer;

  void fail(const std::string &What);
};

/// p-quantile (0..1) of \p V by linear interpolation; 0 when empty.
double quantile(std::vector<double> V, double Q);
double median(std::vector<double> V);

/// Completion rate per second: the median over consecutive blocks of
/// \p Block completions (times in \p Ends, any order) of Block divided by
/// the block's span. A stall or a burst of other load then moves a few
/// blocks, not the figure. Falls back to all completions over their span
/// when there are fewer than two blocks.
double medianBlockRate(std::vector<double> Ends, size_t Block);

/// Latency quantile robust to stretches of other load on the host: the
/// jobs \p Ms (completed at \p Ends) are taken in completion order in
/// blocks of \p Block, and the result is the median over the blocks of
/// each block's \p Q-quantile. A stretch that slows fewer than half the
/// blocks then leaves the figure alone, as it does the rate. Pools every
/// job when \p Block is 0 or there are fewer than three blocks.
double medianBlockQuantile(const std::vector<double> &Ms,
                           const std::vector<double> &Ends, size_t Block,
                           double Q);

//===----------------------------------------------------------------------===//
// Tracing from the benchmark's own code
//===----------------------------------------------------------------------===//

/// Self-time profile of every span name recorded in a timeline: each
/// span's duration minus the part its direct children cover.
struct SpanProfile {
  uint64_t Count = 0;
  std::vector<double> DurUs;  ///< per-span durations, microseconds
  std::vector<double> SelfUs; ///< per-span self times, microseconds
  double totalSelfUs() const;
};
std::map<std::string, SpanProfile> profileSpans(const obs::Timeline &TL);

/// `"id":N` style span args.
std::string idArgs(const char *Key, uint64_t Id);

//===----------------------------------------------------------------------===//
// Process probes
//===----------------------------------------------------------------------===//

/// Resident set of this process plus every live direct child, MiB.
double residentMiBWithChildren();
/// Peak RSS of this process (getrusage), MiB.
double peakRssMiBSelf();
/// Pids of live direct children of this process.
std::vector<int> liveChildren();

/// CPUs this process may run on (empty when the set cannot be read).
std::vector<int> allowedCpus();
/// Restricts the calling thread, and threads it starts later, to \p Cpus
/// (best effort).
void pinThisThread(const std::vector<int> &Cpus);

/// Times \p Rounds rounds of set-up into \p Setup. A round calls \p SetUp
/// once on each CPU of the process's set in turn and records the mean;
/// afterwards the calling thread gets the whole set back. Stops at the
/// first call that returns false (and returns false). On a shared virtual
/// machine one or two CPUs at a time ran up to 1.7x slower than the
/// others, for minutes, so a set-up timed wherever the thread happened to
/// sit moved between runs.
bool timeSetUp(int Rounds, std::vector<double> &Setup,
               const std::function<bool()> &SetUp);

/// One-shot HTTP/1.1 exchange with 127.0.0.1:\p Port (the servers answer
/// `Connection: close`). Status 0 means the exchange itself failed.
struct HttpReply {
  int Status = 0;
  std::string Body;
};
HttpReply httpRequest(uint16_t Port, const std::string &Method,
                      const std::string &Target, const std::string &Body = "");

/// mkdir -p / rm -rf inside the checkout's scratch area.
bool makeDirs(const std::string &Path);
void removeTree(const std::string &Path);
bool pathExists(const std::string &Path);

} // namespace perfbench

#endif // GRS_PERFBENCH_COMMON_H
