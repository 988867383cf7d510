//===- pipeline/Sweep.h - Seed-sweep testing harness ------------------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library form of the recommended testing recipe (examples/race_hunt):
/// run a program body across many schedules, aggregate detections, and
/// de-duplicate findings with the §3.3.1 fingerprint. Where `go test
/// -race` gives one roll of the OS-scheduler dice, a sweep gives a
/// controlled sample of the interleaving space — directly confronting the
/// §3.1 attributes (execution-dependence, interleaving-dependence).
///
//===----------------------------------------------------------------------===//

#ifndef GRS_PIPELINE_SWEEP_H
#define GRS_PIPELINE_SWEEP_H

#include "obs/Timeline.h"
#include "pipeline/Fingerprint.h"
#include "rt/Runtime.h"

#include <functional>
#include <map>
#include <string>

namespace grs {
namespace pipeline {

/// Aggregated outcome of a seed sweep.
struct SweepResult {
  uint64_t SeedsRun = 0;
  uint64_t SeedsWithRaces = 0;
  uint64_t SeedsWithLeaks = 0;
  uint64_t SeedsWithPanics = 0;
  uint64_t SeedsDeadlocked = 0;
  uint64_t TotalReports = 0;
  /// §3.3.1 fingerprint -> {times seen, rendered sample report}.
  struct Finding {
    size_t Occurrences = 0;
    std::string SampleReport;

    bool operator==(const Finding &) const = default;
  };
  std::map<uint64_t, Finding> Findings;

  /// Bit-for-bit equality, including every finding's sample report; the
  /// sweep engines (sweep::resilient, sweep::adaptive) are specified
  /// as indistinguishable from the serial sweep, and their parity tests
  /// compare through this.
  bool operator==(const SweepResult &) const = default;

  /// Detection rate across schedules — 1.0 for always-manifesting bugs,
  /// fractional for the schedule-dependent ones.
  double detectionRate() const {
    return SeedsRun ? static_cast<double>(SeedsWithRaces) /
                          static_cast<double>(SeedsRun)
                    : 0.0;
  }
  bool clean() const {
    return SeedsWithRaces == 0 && SeedsWithLeaks == 0 &&
           SeedsWithPanics == 0 && SeedsDeadlocked == 0;
  }
};

/// Sweep options.
struct SweepOptions {
  uint64_t FirstSeed = 1;
  uint64_t NumSeeds = 50;
  /// Base options applied to every run (Seed overwritten per run).
  rt::RunOptions Run;
  /// Optional flight recorder (borrowed): each slot records a "slot"
  /// span on the "sweep" track. Recording never perturbs the runs.
  obs::Timeline *Timeline = nullptr;
};

/// A program under sweep: runs one fresh Runtime configured by the given
/// options. Matches corpus::Pattern::RunRacy, so corpus patterns plug in
/// directly; corpus::hostBody() wraps a plain body.
using Runner = std::function<rt::RunResult(const rt::RunOptions &)>;

/// Runs \p Run under NumSeeds schedules and aggregates.
inline SweepResult sweep(const SweepOptions &Opts, const Runner &Run) {
  SweepResult Result;
  obs::TimelineTrack *Track =
      Opts.Timeline ? Opts.Timeline->track("sweep") : nullptr;
  for (uint64_t I = 0; I < Opts.NumSeeds; ++I) {
    rt::RunOptions RunOpts = Opts.Run;
    RunOpts.Seed = Opts.FirstSeed + I;
    RunOpts.TimelineTrack = Track;
    // The args string is built only when a track exists, so an untraced
    // sweep pays a single branch per slot.
    obs::TimelineScope SlotSpan =
        Track ? obs::TimelineScope(Track, "slot",
                                   "\"slot\":" + std::to_string(I) +
                                       ",\"seed\":" +
                                       std::to_string(RunOpts.Seed))
              : obs::TimelineScope();
    RunOpts.OnReport = [&Result](const race::Detector &D,
                                 const race::RaceReport &Report) {
      uint64_t Fp = raceFingerprint(D.interner(), Report);
      auto &Finding = Result.Findings[Fp];
      ++Finding.Occurrences;
      if (Finding.SampleReport.empty())
        Finding.SampleReport = race::reportToString(D.interner(), Report);
    };
    rt::RunResult R = Run(RunOpts);
    ++Result.SeedsRun;
    Result.SeedsWithRaces += R.RaceCount > 0;
    Result.SeedsWithLeaks += !R.LeakedGoroutines.empty();
    Result.SeedsWithPanics += !R.Panics.empty();
    Result.SeedsDeadlocked += R.Deadlocked;
    Result.TotalReports += R.RaceCount;
  }
  return Result;
}

/// Runs \p Body, each schedule in a fresh Runtime, under NumSeeds
/// schedules and aggregates.
inline SweepResult sweep(const SweepOptions &Opts,
                         const std::function<void()> &Body) {
  return sweep(Opts, [&Body](const rt::RunOptions &RunOpts) {
    rt::Runtime RT(RunOpts);
    return RT.run(Body);
  });
}

/// Convenience: sweep with default options and \p NumSeeds schedules.
inline SweepResult sweep(uint64_t NumSeeds,
                         const std::function<void()> &Body) {
  SweepOptions Opts;
  Opts.NumSeeds = NumSeeds;
  return sweep(Opts, Body);
}

} // namespace pipeline
} // namespace grs

#endif // GRS_PIPELINE_SWEEP_H
