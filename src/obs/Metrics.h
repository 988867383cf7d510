//===- obs/Metrics.h - Fleet telemetry instruments --------------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer: a registry of named instruments threaded
/// through every subsystem (runtime scheduler, detector, deployment
/// pipeline, trace replay), so the operational numbers the paper's §3.4-
/// §3.5 deployment reported — daily counters, overhead distributions,
/// dedup ratios — come from first-class instruments instead of bench-local
/// arithmetic.
///
/// Design contract (see DESIGN.md §7):
///
///  * Instrument names follow `grs_<layer>_<name>` with Prometheus-style
///    suffixes (`_total` for counters); optional key/value labels
///    distinguish streams sharing a name (e.g. `{seed="7"}`).
///  * The single-threaded fast path is a plain field increment: call sites
///    cache `Counter*`/`Gauge*`/`Histogram*` handles once and bump them
///    directly.
///  * A disabled registry hands out null handles, and the `obs::inc`/
///    `obs::set`/`obs::observe` helpers reduce to one predictable branch —
///    the zero-overhead-when-disabled contract, pinned by
///    Obs.RuntimeTreatsDisabledRegistryAsAbsent.
///  * Every instrument is deterministic: the registry reads no clock, so
///    the same seed gives an identical exported snapshot. Wall-clock
///    phase timings live on obs::Timeline (obs/Timeline.h).
///
//===----------------------------------------------------------------------===//

#ifndef GRS_OBS_METRICS_H
#define GRS_OBS_METRICS_H

#include "support/Stats.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace grs {
namespace obs {

/// Key/value labels attached to an instrument, e.g. {{"seed", "7"}}.
using LabelList = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count.
class Counter {
public:
  void inc(uint64_t N = 1) { V += N; }
  /// Overwrites the value; for mirroring an externally maintained
  /// monotone count (e.g. race::DetectorStats) into the registry.
  void mirror(uint64_t Value) { V = Value; }
  uint64_t value() const { return V; }

private:
  uint64_t V = 0;
};

/// A value that goes up and down (sizes, ratios, last-seen values).
class Gauge {
public:
  void set(double Value) { V = Value; }
  void add(double Delta) { V += Delta; }
  double value() const { return V; }

private:
  double V = 0.0;
};

/// Exponential-bucket histogram: bucket 0 covers (-inf, FirstBucketUpper],
/// bucket K covers (Upper(K-1), Upper(K)] with Upper(K) growing by a
/// constant factor; the final bucket absorbs overflow. Tracks count, sum,
/// min, and max exactly; quantiles interpolate within a bucket (agreement
/// with support::quantile is bounded by bucket resolution and tested in
/// ObsTest).
class Histogram {
public:
  struct Options {
    /// Upper edge of the first bucket.
    double FirstBucketUpper = 1.0;
    /// Ratio between consecutive bucket edges; must be > 1.
    double Growth = 2.0;
    /// Cap on allocated buckets (the last one is the overflow bucket).
    size_t MaxBuckets = 48;
  };

  Histogram();
  explicit Histogram(Options Opts);

  /// Records one sample. NaN samples are rejected (ignored), matching the
  /// support::RunningStat contract.
  void observe(double Value);

  uint64_t count() const { return Count; }
  double sum() const { return Sum; }
  double mean() const { return Count ? Sum / static_cast<double>(Count) : 0.0; }
  double min() const { return Count ? MinV : 0.0; }
  double max() const { return Count ? MaxV : 0.0; }

  /// Allocated buckets (grows lazily with observed range).
  size_t numBuckets() const { return Buckets.size(); }
  uint64_t bucketCount(size_t K) const { return Buckets[K]; }
  /// Upper edge of bucket \p K; +infinity for the overflow bucket.
  double bucketUpperEdge(size_t K) const;

  /// The \p Q quantile (0 <= Q <= 1) by linear interpolation inside the
  /// containing bucket, clamped to the exact [min, max] envelope. NaN when
  /// empty.
  double quantile(double Q) const;

private:
  size_t bucketIndex(double Value) const;

  Options Opts;
  std::vector<uint64_t> Buckets;
  uint64_t Count = 0;
  double Sum = 0.0;
  double MinV = 0.0;
  double MaxV = 0.0;
};

/// An append-only per-tick series (one point per deployment day, per
/// sweep round, ...). The registry analogue of support::Series, which the
/// Figure 3/4 benches render directly from the instruments.
class Timeseries {
public:
  void append(double Value) { V.push_back(Value); }
  const std::vector<double> &values() const { return V; }
  size_t size() const { return V.size(); }
  double back() const { return V.empty() ? 0.0 : V.back(); }

  /// Copies into a renderable support::Series named \p DisplayName.
  support::Series toSeries(std::string DisplayName) const;

private:
  std::vector<double> V;
};

class RuntimeInstruments;

/// Identity of one instrument: name plus sorted label list.
struct InstrumentKey {
  std::string Name;
  LabelList Labels;

  bool operator<(const InstrumentKey &Other) const {
    if (Name != Other.Name)
      return Name < Other.Name;
    return Labels < Other.Labels;
  }

  /// Prometheus-style rendering: `name{k="v",...}` (bare name when no
  /// labels).
  std::string str() const;
};

/// The instrument registry. Owns every instrument it hands out; returned
/// pointers are stable for the registry's lifetime, so call sites cache
/// them once and the per-event cost is a plain increment. A registry
/// constructed disabled returns nullptr from every factory, making all
/// instrumentation collapse to null-checks (see the obs::inc helpers).
///
/// Not thread-safe by design: the runtime serializes all goroutines onto
/// one OS thread, and parallel sweeps give each shard its own registry.
class Registry {
public:
  explicit Registry(bool Enabled = true);
  ~Registry();

  Registry(const Registry &) = delete;
  Registry &operator=(const Registry &) = delete;

  bool enabled() const { return Enabled; }

  //===------------------------------------------------------------------===//
  // Instrument factories (find-or-create; nullptr when disabled)
  //===------------------------------------------------------------------===//

  Counter *counter(const std::string &Name, const LabelList &Labels = {});
  Gauge *gauge(const std::string &Name, const LabelList &Labels = {});
  Histogram *histogram(const std::string &Name, const LabelList &Labels = {},
                       Histogram::Options Opts = Histogram::Options());
  Timeseries *timeseries(const std::string &Name,
                         const LabelList &Labels = {});

  //===------------------------------------------------------------------===//
  // Lookup (nullptr when absent; for benches/tests reading instruments)
  //===------------------------------------------------------------------===//

  const Counter *findCounter(const std::string &Name,
                             const LabelList &Labels = {}) const;
  const Gauge *findGauge(const std::string &Name,
                         const LabelList &Labels = {}) const;
  const Histogram *findHistogram(const std::string &Name,
                                 const LabelList &Labels = {}) const;
  const Timeseries *findTimeseries(const std::string &Name,
                                   const LabelList &Labels = {}) const;

  /// Sum of \p Name counters across all label sets (e.g. total preemptions
  /// over every seed).
  uint64_t counterTotal(const std::string &Name) const;

  /// The cached `grs_rt_*` handle bundle (see obs/RuntimeMetrics.h),
  /// built lazily on first use so rt::Runtime construction amortizes
  /// instrument registration to one resolution per registry. nullptr
  /// when the registry is disabled.
  RuntimeInstruments *runtimeInstruments();

  //===------------------------------------------------------------------===//
  // Enumeration (sorted by InstrumentKey; used by obs/Export)
  //===------------------------------------------------------------------===//

  const std::map<InstrumentKey, std::unique_ptr<Counter>> &counters() const {
    return Counters;
  }
  const std::map<InstrumentKey, std::unique_ptr<Gauge>> &gauges() const {
    return Gauges;
  }
  const std::map<InstrumentKey, std::unique_ptr<Histogram>> &
  histograms() const {
    return Histograms;
  }
  const std::map<InstrumentKey, std::unique_ptr<Timeseries>> &series() const {
    return Series;
  }

private:
  bool Enabled;
  std::unique_ptr<RuntimeInstruments> RtInstruments;
  std::map<InstrumentKey, std::unique_ptr<Counter>> Counters;
  std::map<InstrumentKey, std::unique_ptr<Gauge>> Gauges;
  std::map<InstrumentKey, std::unique_ptr<Histogram>> Histograms;
  std::map<InstrumentKey, std::unique_ptr<Timeseries>> Series;
};

//===----------------------------------------------------------------------===//
// Null-safe helpers: the instrumentation idiom. `obs::inc(C)` on a null
// handle (disabled or absent registry) is a single predictable branch.
//===----------------------------------------------------------------------===//

inline void inc(Counter *C, uint64_t N = 1) {
  if (C)
    C->inc(N);
}

inline void set(Gauge *G, double Value) {
  if (G)
    G->set(Value);
}

inline void observe(Histogram *H, double Value) {
  if (H)
    H->observe(Value);
}

inline void append(Timeseries *S, double Value) {
  if (S)
    S->append(Value);
}

} // namespace obs
} // namespace grs

#endif // GRS_OBS_METRICS_H
