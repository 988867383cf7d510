//===- perfbench/Workloads.h - The three benchmark workloads ----*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload repeats its set-up (reporting every repetition in
/// \p Setup), runs its closed loop for \p Seconds, then checks every
/// output against an oracle computed outside the timed window. A non-null
/// \p Trace records spans around the public calls the workload makes.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_PERFBENCH_WORKLOADS_H
#define GRS_PERFBENCH_WORKLOADS_H

#include "Common.h"

#include "rt/Runtime.h"

#include <functional>
#include <vector>

namespace perfbench {

/// Every corpus pattern (racy and fixed) and every .grs port through
/// sweep::resilient, Threads = 2, unarmed, one client.
PhaseResult runCorpusSweep(const Config &Cfg, double Seconds,
                           obs::Timeline *Trace, std::vector<double> &Setup);

/// Long race-free bodies with the HappensBefore detector on, run serially
/// by one client; a job is one pass over them on each CPU in turn.
PhaseResult runAccessHeavy(const Config &Cfg, double Seconds,
                           obs::Timeline *Trace, std::vector<double> &Setup);

/// A SweepService with 2 pool workers driven over loopback HTTP by
/// \p Clients closed-loop clients, for \p Seconds and at least \p MinJobs
/// completed jobs.
PhaseResult runSvcJobs(const Config &Cfg, double Seconds,
                       obs::Timeline *Trace, std::vector<double> &Setup,
                       unsigned Clients, uint64_t MinJobs);

/// Direct per-call probes of every layer (see README.md), each call
/// wrapped in a span on \p Trace. Results land in \p Out; failed checks
/// in \p Checks.
void runLayerProbes(const Config &Cfg, obs::Timeline &Trace, MetricMap &Out,
                    PhaseResult &Checks);

/// The access-heavy bodies, shared with the detector-overhead probe.
struct HeavyBody {
  const char *Name;
  std::function<void()> Body;
  /// Instrumented accesses the program itself makes (a floor for the
  /// detector's count; the exact count is pinned by a reference run).
  uint64_t ProgramAccesses;
};
std::vector<HeavyBody> heavyBodies(uint64_t Seed);

/// RunOptions every access-heavy run uses (detector on, rare preemption).
grs::rt::RunOptions heavyRunOptions(uint64_t Seed, bool Detect);

} // namespace perfbench

#endif // GRS_PERFBENCH_WORKLOADS_H
