//===- obs/Metrics.cpp - Fleet telemetry instruments ----------------------===//

#include "obs/Metrics.h"

#include "obs/RuntimeMetrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace grs;
using namespace grs::obs;

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

Histogram::Histogram() : Histogram(Options()) {}

Histogram::Histogram(Options Opts) : Opts(Opts) {
  assert(Opts.Growth > 1.0 && "bucket growth factor must exceed 1");
  assert(Opts.FirstBucketUpper > 0.0 && "first bucket edge must be positive");
  assert(Opts.MaxBuckets >= 2 && "need at least one bucket plus overflow");
}

size_t Histogram::bucketIndex(double Value) const {
  double Upper = Opts.FirstBucketUpper;
  size_t K = 0;
  while (Value > Upper && K + 1 < Opts.MaxBuckets) {
    Upper *= Opts.Growth;
    ++K;
  }
  return K;
}

double Histogram::bucketUpperEdge(size_t K) const {
  if (K + 1 >= Opts.MaxBuckets)
    return std::numeric_limits<double>::infinity();
  return Opts.FirstBucketUpper * std::pow(Opts.Growth, static_cast<double>(K));
}

void Histogram::observe(double Value) {
  if (std::isnan(Value))
    return;
  size_t K = bucketIndex(Value);
  if (K >= Buckets.size())
    Buckets.resize(K + 1, 0);
  ++Buckets[K];
  if (Count == 0) {
    MinV = MaxV = Value;
  } else {
    MinV = std::min(MinV, Value);
    MaxV = std::max(MaxV, Value);
  }
  ++Count;
  Sum += Value;
}

double Histogram::quantile(double Q) const {
  if (Count == 0)
    return std::numeric_limits<double>::quiet_NaN();
  Q = std::min(std::max(Q, 0.0), 1.0);
  // Target rank in [0, Count]; walk the cumulative distribution to the
  // containing bucket and interpolate linearly inside it.
  double Rank = Q * static_cast<double>(Count);
  uint64_t Before = 0;
  for (size_t K = 0; K < Buckets.size(); ++K) {
    uint64_t InBucket = Buckets[K];
    if (InBucket == 0)
      continue;
    if (Rank <= static_cast<double>(Before + InBucket)) {
      double Lower =
          K == 0 ? MinV : Opts.FirstBucketUpper *
                              std::pow(Opts.Growth, static_cast<double>(K - 1));
      double Upper = bucketUpperEdge(K);
      // Clamp the bucket envelope to the observed extremes so quantiles
      // never leave [min, max] (and the overflow bucket stays finite).
      Lower = std::max(Lower, MinV);
      Upper = std::min(std::isinf(Upper) ? MaxV : Upper, MaxV);
      if (Upper < Lower)
        Upper = Lower;
      double Frac = (Rank - static_cast<double>(Before)) /
                    static_cast<double>(InBucket);
      return Lower + (Upper - Lower) * Frac;
    }
    Before += InBucket;
  }
  return MaxV;
}

//===----------------------------------------------------------------------===//
// Timeseries
//===----------------------------------------------------------------------===//

support::Series Timeseries::toSeries(std::string DisplayName) const {
  support::Series S;
  S.Name = std::move(DisplayName);
  S.Values = V;
  return S;
}

//===----------------------------------------------------------------------===//
// InstrumentKey
//===----------------------------------------------------------------------===//

std::string InstrumentKey::str() const {
  if (Labels.empty())
    return Name;
  std::string Out = Name + "{";
  for (size_t I = 0; I < Labels.size(); ++I) {
    if (I)
      Out += ",";
    Out += Labels[I].first + "=\"" + Labels[I].second + "\"";
  }
  Out += "}";
  return Out;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

Registry::Registry(bool Enabled) : Enabled(Enabled) {}

Registry::~Registry() = default;

namespace {
/// Find-or-create over one instrument map. Sorting labels at creation
/// makes {a,b} and {b,a} the same instrument.
template <typename T, typename... MakeArgs>
T *findOrCreate(std::map<InstrumentKey, std::unique_ptr<T>> &Map,
                const std::string &Name, const LabelList &Labels,
                MakeArgs &&...Args) {
  assert(!Name.empty() && "instrument name must be non-empty");
  InstrumentKey Key{Name, Labels};
  std::sort(Key.Labels.begin(), Key.Labels.end());
  auto [It, Inserted] = Map.try_emplace(std::move(Key));
  if (Inserted)
    It->second = std::make_unique<T>(std::forward<MakeArgs>(Args)...);
  return It->second.get();
}

template <typename T>
const T *findOnly(const std::map<InstrumentKey, std::unique_ptr<T>> &Map,
                  const std::string &Name, const LabelList &Labels) {
  InstrumentKey Key{Name, Labels};
  std::sort(Key.Labels.begin(), Key.Labels.end());
  auto It = Map.find(Key);
  return It == Map.end() ? nullptr : It->second.get();
}
} // namespace

Counter *Registry::counter(const std::string &Name, const LabelList &Labels) {
  if (!Enabled)
    return nullptr;
  return findOrCreate(Counters, Name, Labels);
}

Gauge *Registry::gauge(const std::string &Name, const LabelList &Labels) {
  if (!Enabled)
    return nullptr;
  return findOrCreate(Gauges, Name, Labels);
}

Histogram *Registry::histogram(const std::string &Name,
                               const LabelList &Labels,
                               Histogram::Options Opts) {
  if (!Enabled)
    return nullptr;
  return findOrCreate(Histograms, Name, Labels, Opts);
}

Timeseries *Registry::timeseries(const std::string &Name,
                                 const LabelList &Labels) {
  if (!Enabled)
    return nullptr;
  return findOrCreate(Series, Name, Labels);
}

const Counter *Registry::findCounter(const std::string &Name,
                                     const LabelList &Labels) const {
  return findOnly(Counters, Name, Labels);
}

const Gauge *Registry::findGauge(const std::string &Name,
                                 const LabelList &Labels) const {
  return findOnly(Gauges, Name, Labels);
}

const Histogram *Registry::findHistogram(const std::string &Name,
                                         const LabelList &Labels) const {
  return findOnly(Histograms, Name, Labels);
}

const Timeseries *Registry::findTimeseries(const std::string &Name,
                                           const LabelList &Labels) const {
  return findOnly(Series, Name, Labels);
}

uint64_t Registry::counterTotal(const std::string &Name) const {
  uint64_t Total = 0;
  for (const auto &[Key, C] : Counters)
    if (Key.Name == Name)
      Total += C->value();
  return Total;
}
