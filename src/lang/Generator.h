//===- lang/Generator.h - Seeded grs program fuzzer -------------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded generator of VALID grs programs with known ground truth,
/// plus the differential-testing harness built on it. Each program seed
/// deterministically yields one program that is either
///
///  * racy   — two workers perform unguarded increments of a dedicated
///             victim variable with no happens-before edge between them
///             on ANY schedule (the increments are each worker's final
///             ops, after every unlock, and racy programs use no
///             channels), so a sound detector must flag every seed; or
///  * benign — every shared variable follows a safe policy (all-access
///             mutex-guarded, single-owner, or read-only-after-init)
///             and channel use is non-blocking by construction, so any
///             report is a detector false positive.
///
/// The harness sweeps each generated program through the interpreter
/// and scores verdicts against ground truth: a racy program that never
/// flags is a MISS; a benign program that flags is a FALSE POSITIVE;
/// any panic, deadlock, or leak is a generator-or-runtime bug.
/// LangGenerator.DifferentialGroundTruthHolds gates 500 programs.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_LANG_GENERATOR_H
#define GRS_LANG_GENERATOR_H

#include "lang/Parser.h"

#include <cstdint>
#include <string>
#include <vector>

namespace grs {
namespace lang {

/// One generated program with its ground truth.
struct GeneratedProgram {
  uint64_t ProgramSeed = 0;
  bool Racy = false;               ///< Ground truth.
  std::string Source;              ///< The grs source text.
  ParseResult Parsed;              ///< Parsed form; ok() is a generator
                                   ///< invariant checked by the harness.
};

/// Deterministically generates the program for \p ProgramSeed.
GeneratedProgram generateProgram(uint64_t ProgramSeed);

/// Differential harness options.
struct DifferentialOptions {
  uint64_t FirstProgram = 1;
  unsigned NumPrograms = 500;
  /// Schedule seeds swept per program. Racy programs race on every
  /// schedule by construction, so a handful suffices for miss checks;
  /// more seeds sharpen the false-positive check.
  unsigned SweepSeeds = 8;
};

/// Aggregated differential outcome.
struct DifferentialOutcome {
  unsigned Programs = 0;
  unsigned RacyPrograms = 0;
  unsigned BenignPrograms = 0;
  unsigned ParseFailures = 0;
  unsigned Misses = 0;         ///< Racy program with zero flagged seeds.
  unsigned FalsePositives = 0; ///< Benign program with a flagged seed.
  unsigned Panics = 0;         ///< Seeds panicking across all programs.
  unsigned Deadlocks = 0;
  unsigned Leaks = 0;
  /// Offending program seeds, for reproduction.
  std::vector<uint64_t> MissSeeds;
  std::vector<uint64_t> FalsePositiveSeeds;

  bool ok() const {
    return ParseFailures == 0 && Misses == 0 && FalsePositives == 0 &&
           Panics == 0 && Deadlocks == 0 && Leaks == 0;
  }
};

/// Generates and sweeps NumPrograms programs, scoring detector verdicts
/// against ground truth.
DifferentialOutcome differentialSweep(const DifferentialOptions &Opts);

} // namespace lang
} // namespace grs

#endif // GRS_LANG_GENERATOR_H
