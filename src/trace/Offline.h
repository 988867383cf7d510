//===- trace/Offline.h - Offline replay race detection ----------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline race detection over captured event traces: the analyze half of
/// the record-once/analyze-at-scale pipeline. An OfflineDetector feeds a
/// decoded trace (trace/Trace.h) through a fresh race::Detector, making
/// detection a pure function of (trace bytes, DetectorOptions):
///
///  * With the options of the recording run, the replay's verdicts —
///    reports, fingerprints, stats — are identical to the online run's
///    (parity-tested across the corpus in tests/TraceTest.cpp).
///  * With different options, one recorded execution is re-analyzed under
///    another detector configuration (pure-HB vs hybrid vs lock-set-only,
///    epoch ablation) without re-running the scheduler — the §3.1
///    "detected races depend on the interleaving" problem factored so the
///    interleaving is captured once and questions are asked offline.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_TRACE_OFFLINE_H
#define GRS_TRACE_OFFLINE_H

#include "race/Detector.h"
#include "trace/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace grs {

namespace obs {
class Counter;
class Registry;
} // namespace obs

namespace trace {

/// Replays decoded traces through a private race::Detector.
class OfflineDetector {
public:
  explicit OfflineDetector(race::DetectorOptions Opts = {});

  /// Attaches a metrics registry (borrowed; must outlive the detector).
  /// Each replay then bumps `grs_trace_replay_events_total` per applied
  /// event; a caller that wants events/sec times replay() itself (an
  /// obs::TimelineScope around the call). Null detaches.
  void setMetrics(obs::Registry *Reg);

  /// Feeds every event of \p T into the detector, in order. Annotation
  /// events (channel/atomic markers) carry no detector transition and are
  /// counted but not applied. \returns false if the trace is structurally
  /// inconsistent (references a goroutine or sync var never allocated);
  /// the failure is in error() and replay stops there. May be called
  /// with several traces in sequence to model concatenated executions.
  bool replay(const Trace &T);

  /// Decodes \p Bytes and replays. Decode failures land in error().
  bool replayBytes(const std::vector<uint8_t> &Bytes);

  /// Events applied so far (annotations included).
  uint64_t eventsReplayed() const { return EventsReplayed; }

  bool failed() const { return !Error.empty(); }
  const std::string &error() const { return Error; }

  /// The detector holding replay verdicts (reports, stats, interner).
  race::Detector &det() { return Det; }
  const race::Detector &det() const { return Det; }

  /// §3.3.1 fingerprints of every replayed report, sorted (the canonical
  /// comparable verdict form; online/offline parity is equality of these
  /// plus report counts).
  std::vector<uint64_t> fingerprints() const;

private:
  bool apply(const Trace &T, const TraceRecord &Record);
  bool fail(std::string Message);
  /// The detector's id for trace string \p Str of \p T, interned on its
  /// first use in the trace rather than at every access event.
  race::StrId nameId(const Trace &T, TraceStrId Str);

  race::Detector Det;
  static constexpr race::StrId Unmapped = ~static_cast<race::StrId>(0);
  /// Trace string id -> detector string id for the trace being replayed.
  std::vector<race::StrId> NameIds;
  /// NewSync events replayed so far. Structural validation bounds sync
  /// ids by Det.numSyncVarSlots() (free-list reuse makes the slot table,
  /// not this count, authoritative); kept as a replay statistic.
  uint64_t NumSyncVars = 0;
  uint64_t EventsReplayed = 0;
  std::string Error;
  /// Optional telemetry (see setMetrics).
  obs::Counter *MEvents = nullptr;
};

/// One-shot helper: replay \p T under \p Opts and return the sorted
/// fingerprints (empty also when the trace is malformed — use
/// OfflineDetector directly to distinguish).
std::vector<uint64_t> replayFingerprints(const Trace &T,
                                         race::DetectorOptions Opts = {});

} // namespace trace
} // namespace grs

#endif // GRS_TRACE_OFFLINE_H
