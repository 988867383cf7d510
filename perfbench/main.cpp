//===- perfbench/main.cpp - Benchmark entry point --------------------------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// Usage: perfbench --workload corpus-sweep|access-heavy|svc-jobs
//                  --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// --trace 0 runs the workload once and prints its end-to-end metrics.
// --trace 1 runs it untraced and then traced (the difference is the
// tracing overhead), then probes every layer; it prints the per-layer
// metrics and a self-time table, and writes the spans as Chrome trace
// JSON under DIR. Human-readable lines come first; the last stdout line
// is one JSON object {"correct","attempted","failed","metrics"}. Exits
// nonzero when any output disagrees with its oracle.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <malloc.h>
#include <unistd.h>

using namespace perfbench;

namespace {

PhaseResult runWorkload(const Config &Cfg, double Seconds,
                        obs::Timeline *Trace, std::vector<double> &Setup) {
  if (Cfg.Workload == "corpus-sweep")
    return runCorpusSweep(Cfg, Seconds, Trace, Setup);
  if (Cfg.Workload == "access-heavy")
    return runAccessHeavy(Cfg, Seconds, Trace, Setup);
  // Each measured svc-jobs run needs >= 100 jobs so that 10 samples lie
  // above p90; the shorter traced phases take what their window gives.
  return runSvcJobs(Cfg, Seconds, Trace, Setup, 2, Trace ? 0 : 100);
}

MetricMap endToEnd(const PhaseResult &P, const std::vector<double> &Setup) {
  MetricMap M;
  uint64_t N = P.JobMs.size();
  // Runs and accesses per job are fixed by the inputs, so their rates
  // follow the job rate.
  double JobRate = medianBlockRate(P.JobEnds, P.RateBlock);
  double PerJob = P.Jobs ? 1.0 / static_cast<double>(P.Jobs) : 0.0;
  M["setup_s"] = {median(Setup), "s", Setup.size()};
  M["runs_per_s"] = {JobRate * static_cast<double>(P.Runs) * PerJob, "1/s",
                     P.Runs};
  M["accesses_per_s"] = {
      JobRate * static_cast<double>(P.Accesses) * PerJob, "1/s", 0};
  M["job_p50_ms"] = {
      medianBlockQuantile(P.JobMs, P.JobEnds, P.LatencyBlock, 0.5), "ms", N};
  M["job_p90_ms"] = {
      medianBlockQuantile(P.JobMs, P.JobEnds, P.LatencyBlock, 0.9), "ms", N};
  M["jobs_per_s"] = {JobRate, "1/s", P.Jobs};
  M["peak_rss_mb"] = {std::max(P.PeakRssMiB, peakRssMiBSelf()), "MB", 0};
  return M;
}

void printTable(const char *Title, const std::string &Workload,
                const MetricMap &M) {
  std::printf("%s (%s)\n", Title, Workload.c_str());
  for (const auto &[Name, V] : M) {
    std::printf("  %-32s %16.4f %-6s", Name.c_str(), V.Value, V.Unit.c_str());
    if (V.N)
      std::printf(" n=%llu", static_cast<unsigned long long>(V.N));
    std::printf("\n");
  }
}

void printErrors(const PhaseResult &P) {
  std::printf("  %-32s %16.4f %-6s attempted=%llu failed=%llu\n",
              "error_rate",
              P.Attempted ? static_cast<double>(P.Failed) /
                                static_cast<double>(P.Attempted)
                          : 0.0,
              "ratio", static_cast<unsigned long long>(P.Attempted),
              static_cast<unsigned long long>(P.Failed));
  for (const std::string &F : P.Failures)
    std::printf("  FAILED: %s\n", F.c_str());
}

void merge(PhaseResult &Into, const PhaseResult &From) {
  Into.Attempted += From.Attempted;
  Into.Failed += From.Failed;
  for (const std::string &F : From.Failures)
    if (Into.Failures.size() < 8)
      Into.Failures.push_back(F);
}

/// How much worse the traced phase read than the untraced one, percent
/// (positive = tracing cost something).
double overheadPct(const Metric &Untraced, const Metric &Traced,
                   bool HigherIsBetter) {
  if (Untraced.Value == 0)
    return 0;
  double Delta = (Traced.Value - Untraced.Value) / Untraced.Value * 100;
  return HigherIsBetter ? -Delta : Delta;
}

void printSelfTimes(const obs::Timeline &TL) {
  std::map<std::string, SpanProfile> Prof = profileSpans(TL);
  std::vector<std::pair<double, std::string>> Order;
  for (const auto &[Name, P] : Prof)
    Order.push_back({P.totalSelfUs(), Name});
  std::sort(Order.rbegin(), Order.rend());
  std::printf("span self time (duration minus child spans)\n");
  std::printf("  %-36s %8s %14s %14s %14s\n", "span", "count", "p50 dur us",
              "p50 self us", "total self ms");
  for (const auto &[Total, Name] : Order) {
    const SpanProfile &P = Prof[Name];
    std::printf("  %-36s %8llu %14.2f %14.2f %14.2f\n", Name.c_str(),
                static_cast<unsigned long long>(P.Count), median(P.DurUs),
                median(P.SelfUs), Total / 1e3);
  }
}

void printResult(const PhaseResult &P, const MetricMap &M) {
  std::string Out = "{\"correct\": ";
  Out += P.Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(P.Attempted);
  Out += ", \"failed\": " + std::to_string(P.Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, V] : M) {
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.17g",
                  std::isfinite(V.Value) ? V.Value : 0.0);
    Out += (First ? "\"" : ", \"") + Name + "\": {\"value\": " + Num +
           ", \"unit\": \"" + V.Unit + "\"}";
    First = false;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload corpus-sweep|access-heavy|"
               "svc-jobs --seed N --seconds S --trace 0|1 [--workdir DIR]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  // Fixed malloc thresholds. glibc otherwise moves its mmap and trim
  // thresholds with the allocation history, so whether the runtime's
  // 256 KiB goroutine stacks are reused from the heap or freshly mapped
  // and faulted flipped from run to run, and job times with it.
  ::mallopt(M_MMAP_THRESHOLD, 4 << 20);
  ::mallopt(M_TRIM_THRESHOLD, 256 << 20);

  Config Cfg;
  std::string WorkDir = ".bench_build/work";
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      Cfg.Workload = Val;
    else if (Key == "--seed")
      Cfg.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      Cfg.Seconds = std::atof(Val.c_str());
    else if (Key == "--trace")
      Cfg.Trace = Val == "1";
    else if (Key == "--workdir")
      WorkDir = Val;
    else
      return usage();
  }
  if ((Cfg.Workload != "corpus-sweep" && Cfg.Workload != "access-heavy" &&
       Cfg.Workload != "svc-jobs") ||
      Cfg.Seconds <= 0)
    return usage();
  Cfg.WorkDir = WorkDir + "/run-" + std::to_string(::getpid());
  if (!makeDirs(Cfg.WorkDir)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 Cfg.WorkDir.c_str());
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  PhaseResult All;
  MetricMap Result;
  if (!Cfg.Trace) {
    std::vector<double> Setup;
    PhaseResult P = runWorkload(Cfg, Cfg.Seconds, nullptr, Setup);
    Result = endToEnd(P, Setup);
    printTable("end-to-end", Cfg.Workload, Result);
    if (Cfg.Workload == "svc-jobs" && P.Layer.count("svc.status_p50_us"))
      printTable("service", Cfg.Workload,
                 {{"status_p50_us", P.Layer["svc.status_p50_us"]}});
    printErrors(P);
    merge(All, P);
  } else {
    std::vector<double> S0, S1;
    PhaseResult Untraced = runWorkload(Cfg, 0.3 * Cfg.Seconds, nullptr, S0);
    obs::Timeline Trace(true);
    PhaseResult Traced = runWorkload(Cfg, 0.3 * Cfg.Seconds, &Trace, S1);
    merge(All, Untraced);
    merge(All, Traced);
    MetricMap E0 = endToEnd(Untraced, S0), E1 = endToEnd(Traced, S1);

    // Layers the workload does not exercise are probed directly; the svc
    // phase latencies come from a short one-client service run.
    MetricMap Layer;
    runLayerProbes(Cfg, Trace, Layer, All);
    if (Cfg.Workload != "svc-jobs") {
      std::vector<double> Sx;
      PhaseResult Mini = runSvcJobs(Cfg, 1.0, &Trace, Sx, 1, 4);
      merge(All, Mini);
      for (const auto &[Name, V] : Mini.Layer)
        if (Name.rfind("svc.", 0) == 0)
          Layer[Name] = V;
    }
    for (const auto &[Name, V] : Traced.Layer)
      Layer[Name] = V;
    for (const char *Name : {"runs_per_s", "accesses_per_s", "jobs_per_s"})
      Layer[std::string("trace.") + Name + "_overhead_pct"] = {
          overheadPct(E0[Name], E1[Name], true), "%", 0};
    for (const char *Name : {"job_p50_ms", "job_p90_ms"})
      Layer[std::string("trace.") + Name + "_overhead_pct"] = {
          overheadPct(E0[Name], E1[Name], false), "%", 0};

    printTable("end-to-end, untraced phase", Cfg.Workload, E0);
    printTable("end-to-end, traced phase", Cfg.Workload, E1);
    printTable("per-layer", Cfg.Workload, Layer);
    printSelfTimes(Trace);
    printErrors(All);
    std::string TracePath = WorkDir + "/trace-" + Cfg.Workload + "-seed" +
                            std::to_string(Cfg.Seed) + ".json";
    std::ofstream(TracePath) << Trace.chromeTraceJson();
    std::printf("spans written to %s\n", TracePath.c_str());
    Result = Layer;
  }
  removeTree(Cfg.WorkDir);
  printResult(All, Result);
  return All.Failed == 0 ? 0 : 1;
}
