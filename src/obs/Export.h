//===- obs/Export.h - Metric snapshot exporters -----------------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes a Registry snapshot in two formats:
///
///  * Prometheus text exposition (`# TYPE` headers, `name{labels} value`
///    lines, histogram `_bucket`/`_sum`/`_count` expansion) — what a
///    production deployment of the §3.4 pipeline would expose on /metrics;
///  * JSON-lines (one instrument per line) — the diffable build artifact
///    CI uploads so perf trajectories can be compared across PRs.
///
/// Both outputs iterate instruments in sorted key order and never embed
/// timestamps, so a snapshot is a pure function of the instruments — the
/// basis of the ObsTest determinism property.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_OBS_EXPORT_H
#define GRS_OBS_EXPORT_H

#include <iosfwd>
#include <string>

namespace grs {
namespace obs {

class Registry;

/// Writes the Prometheus text exposition of \p R to \p OS. Timeseries
/// instruments export their latest value as a gauge plus a `_points`
/// count.
void exportPrometheus(const Registry &R, std::ostream &OS);
std::string prometheusText(const Registry &R);

/// Writes one JSON object per line for every instrument of \p R
/// (counters, gauges, histograms with their buckets, and full timeseries
/// value arrays).
void exportJsonLines(const Registry &R, std::ostream &OS);
std::string jsonLines(const Registry &R);

} // namespace obs
} // namespace grs

#endif // GRS_OBS_EXPORT_H
