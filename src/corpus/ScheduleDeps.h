//===- corpus/ScheduleDeps.h - Schedule-dependent pattern registry -*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The registry of known schedule-dependent programs and their expected
/// §3.3.1 fingerprints — the ground truth behind (a) the CoverageTest
/// tier-1 check that no pattern's race silently stops manifesting under
/// sweep, and (b) AdaptiveSweepTest's runs-to-first-detection comparison
/// of the adaptive vs uniform sweep engines.
///
/// Three kinds of rows:
///  * NEEDLES — purpose-built programs whose race manifests on only a
///    few percent of uniform schedules at the default preemption
///    probability, but markedly more often as the probability rises
///    (rates below, measured over >=600 seeds). These are the §3.1
///    "interleaving-dependent" extreme an adaptive sweep exists for.
///  * mild corpus rows — Section 4 patterns whose detection rate is
///    high but fractional (0.86-0.93), the paper's typical case.
///  * always-manifesting rows — corpus patterns detected on essentially
///    every schedule; AdaptiveFloor's sanity floor (adaptive must never
///    do worse than uniform on these).
///
/// Every expected fingerprint is hardcoded: the §3.3.1 hash keys on
/// lexicographically-ordered function-name chains with line numbers
/// dropped, so it is stable across platforms and runs by construction.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_CORPUS_SCHEDULEDEPS_H
#define GRS_CORPUS_SCHEDULEDEPS_H

#include "rt/Runtime.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace grs {
namespace corpus {

/// One schedule-dependent program. Unlike Pattern, rows carry their
/// measured manifestation profile and expected fingerprints; needles are
/// deliberately NOT part of allPatterns() (CorpusTest requires >=1/3
/// detection over 20 seeds, which a needle by definition fails).
struct ScheduleDep {
  std::string Id;
  std::string Description;
  /// True for rows that manifest on essentially every schedule — the
  /// AdaptiveFloor sanity-floor set.
  bool Always = false;
  /// Detection rate at default RunOptions (PreemptProbability 0.2),
  /// measured over 200+ seeds; documentation for bench readers.
  double MeasuredBaseRate = 0.0;
  /// Seeds CoverageTest sweeps to observe every expected fingerprint
  /// (deterministic: the runtime makes this exact, not probabilistic).
  unsigned CoverageSeeds = 20;
  /// The §3.3.1 fingerprints this program's races reduce to.
  std::vector<uint64_t> ExpectedFps;
  /// Runs one schedule; same signature as Pattern::RunRacy.
  std::function<rt::RunResult(const rt::RunOptions &)> Run;
  /// The raw program body when this row owns one (needles do; corpus
  /// rows only re-export Pattern::RunRacy). Lets ChoiceHook-driven
  /// engines like pipeline::explore, which must host the body
  /// themselves, run the row too. Null for corpus rows.
  std::function<void()> Body;
};

/// All registered schedule-dependent rows: needles first, then mild
/// corpus rows, then always-manifesting rows.
const std::vector<ScheduleDep> &scheduleDeps();

/// \returns the row with the given id, or nullptr.
const ScheduleDep *findScheduleDep(const std::string &Id);

} // namespace corpus
} // namespace grs

#endif // GRS_CORPUS_SCHEDULEDEPS_H
