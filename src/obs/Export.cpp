//===- obs/Export.cpp - Metric snapshot exporters -------------------------===//

#include "obs/Export.h"

#include "obs/Metrics.h"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

using namespace grs;
using namespace grs::obs;

//===----------------------------------------------------------------------===//
// Deterministic number / string formatting
//===----------------------------------------------------------------------===//

namespace {

/// Formats \p V identically on every run: integers without a fraction,
/// everything else with up to 9 significant digits.
std::string num(double V) {
  if (std::isnan(V))
    return "NaN";
  if (std::isinf(V))
    return V > 0 ? "+Inf" : "-Inf";
  if (V == std::floor(V) && std::fabs(V) < 1e15) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.0f", V);
    return Buf;
  }
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string jsonLabels(const LabelList &Labels) {
  std::string Out = "{";
  for (size_t I = 0; I < Labels.size(); ++I) {
    if (I)
      Out += ",";
    Out += "\"" + jsonEscape(Labels[I].first) + "\":\"" +
           jsonEscape(Labels[I].second) + "\"";
  }
  return Out + "}";
}

/// Renders `name<suffix>{labels}` for histogram/_sum/_count companions.
std::string suffixed(const InstrumentKey &Key, const char *Suffix) {
  InstrumentKey K{Key.Name + Suffix, Key.Labels};
  return K.str();
}

/// Renders `{existing,le="edge"}` — merges the `le` bucket label into an
/// instrument's label list for Prometheus histogram lines.
std::string withLe(const InstrumentKey &Key, const std::string &Le) {
  std::string Out = Key.Name + "_bucket{";
  for (const auto &[K, V] : Key.Labels)
    Out += K + "=\"" + V + "\",";
  Out += "le=\"" + Le + "\"}";
  return Out;
}

/// Emits a `# TYPE` header the first time \p Name appears.
void typeHeader(std::ostream &OS, std::string &Last, const std::string &Name,
                const char *Kind) {
  if (Name == Last)
    return;
  OS << "# TYPE " << Name << " " << Kind << "\n";
  Last = Name;
}

} // namespace

//===----------------------------------------------------------------------===//
// Prometheus text exposition
//===----------------------------------------------------------------------===//

void obs::exportPrometheus(const Registry &R, std::ostream &OS) {
  std::string Last;
  for (const auto &[Key, C] : R.counters()) {
    typeHeader(OS, Last, Key.Name, "counter");
    OS << Key.str() << " " << C->value() << "\n";
  }
  for (const auto &[Key, G] : R.gauges()) {
    typeHeader(OS, Last, Key.Name, "gauge");
    OS << Key.str() << " " << num(G->value()) << "\n";
  }
  for (const auto &[Key, H] : R.histograms()) {
    typeHeader(OS, Last, Key.Name, "histogram");
    uint64_t Cumulative = 0;
    for (size_t K = 0; K < H->numBuckets(); ++K) {
      Cumulative += H->bucketCount(K);
      OS << withLe(Key, num(H->bucketUpperEdge(K))) << " " << Cumulative
         << "\n";
    }
    if (H->numBuckets() == 0 ||
        !std::isinf(H->bucketUpperEdge(H->numBuckets() - 1)))
      OS << withLe(Key, "+Inf") << " " << H->count() << "\n";
    OS << suffixed(Key, "_sum") << " " << num(H->sum()) << "\n";
    OS << suffixed(Key, "_count") << " " << H->count() << "\n";
  }
  for (const auto &[Key, S] : R.series()) {
    typeHeader(OS, Last, Key.Name, "gauge");
    OS << Key.str() << " " << num(S->back()) << "\n";
    OS << suffixed(Key, "_points") << " " << S->size() << "\n";
  }
}

std::string obs::prometheusText(const Registry &R) {
  std::ostringstream OS;
  exportPrometheus(R, OS);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// JSON lines
//===----------------------------------------------------------------------===//

void obs::exportJsonLines(const Registry &R, std::ostream &OS) {
  for (const auto &[Key, C] : R.counters())
    OS << "{\"type\":\"counter\",\"name\":\"" << jsonEscape(Key.Name)
       << "\",\"labels\":" << jsonLabels(Key.Labels)
       << ",\"value\":" << C->value() << "}\n";
  for (const auto &[Key, G] : R.gauges())
    OS << "{\"type\":\"gauge\",\"name\":\"" << jsonEscape(Key.Name)
       << "\",\"labels\":" << jsonLabels(Key.Labels) << ",\"value\":"
       << num(G->value()) << "}\n";
  for (const auto &[Key, H] : R.histograms()) {
    OS << "{\"type\":\"histogram\",\"name\":\"" << jsonEscape(Key.Name)
       << "\",\"labels\":" << jsonLabels(Key.Labels)
       << ",\"count\":" << H->count() << ",\"sum\":" << num(H->sum())
       << ",\"min\":" << num(H->min()) << ",\"max\":" << num(H->max())
       << ",\"buckets\":[";
    for (size_t K = 0; K < H->numBuckets(); ++K) {
      if (K)
        OS << ",";
      OS << "{\"le\":\"" << num(H->bucketUpperEdge(K))
         << "\",\"count\":" << H->bucketCount(K) << "}";
    }
    OS << "]}\n";
  }
  for (const auto &[Key, S] : R.series()) {
    OS << "{\"type\":\"series\",\"name\":\"" << jsonEscape(Key.Name)
       << "\",\"labels\":" << jsonLabels(Key.Labels) << ",\"values\":[";
    const std::vector<double> &V = S->values();
    for (size_t I = 0; I < V.size(); ++I) {
      if (I)
        OS << ",";
      OS << num(V[I]);
    }
    OS << "]}\n";
  }
}

std::string obs::jsonLines(const Registry &R) {
  std::ostringstream OS;
  exportJsonLines(R, OS);
  return OS.str();
}
