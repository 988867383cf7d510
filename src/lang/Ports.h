//===- lang/Ports.h - Registry of .grs corpus ports -------------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The catalog of corpus patterns ported to interpreted `.grs` programs
/// under testdata/lang/. Each entry names its hand-written C++ twin in
/// corpus::ScheduleDeps and pins the §3.3.1 fingerprint set the
/// interpreted program must reproduce — same function-name chains, same
/// goroutine labels, so fingerprints are bit-identical to the twin's.
///
/// Detection RATES are not pinned here: the interpreter performs extra
/// instrumented accesses (variable cells), which perturbs per-seed
/// schedules, so a port and its twin can manifest on different seeds.
/// What must agree — and what LangTest asserts — is the
/// fingerprint SET over a sweep, plus every-seed detection for ports
/// whose twin is schedule-independent (Always).
///
//===----------------------------------------------------------------------===//

#ifndef GRS_LANG_PORTS_H
#define GRS_LANG_PORTS_H

#include "lang/Parser.h"

#include <cstdint>
#include <string>
#include <vector>

namespace grs {
namespace lang {

/// One ported corpus pattern.
struct LangPort {
  /// Stable id for reporting; matches the corpus twin's id when the
  /// twin is registered in corpus::ScheduleDeps.
  std::string Id;

  /// Path under testdata/, e.g. "lang/partial_locking.grs".
  std::string File;

  /// corpus::ScheduleDeps id of the C++ twin ("" when the twin is not
  /// a registered needle — e.g. the lint-exemplar ports).
  std::string TwinId;

  /// True when the race manifests on every seed (schedule-independent
  /// happens-before violation, like the twin's Always flag).
  bool Always = false;

  /// True when the program must sweep race-free (negative exemplars).
  bool RaceFree = false;

  /// The §3.3.1 fingerprints the port must produce over a sweep —
  /// identical to the twin's. Empirically pinned; see LangTest.
  std::vector<uint64_t> ExpectedFps;
};

/// All registered ports, stable order.
const std::vector<LangPort> &langPorts();

/// Lookup by id; nullptr when unknown.
const LangPort *findLangPort(const std::string &Id);

/// Resolves a path under testdata/ from common working directories
/// (source root, build/, build/tests/). Returns "" when unreachable.
std::string findTestdataPath(const std::string &Rel);

/// Reads and parses a .grs file. On I/O or parse failure returns a
/// result whose ok() is false, with diagnostics rendered into *Error
/// when Error is non-null.
ParseResult loadProgramFile(const std::string &Path,
                            std::string *Error = nullptr);

} // namespace lang
} // namespace grs

#endif // GRS_LANG_PORTS_H
