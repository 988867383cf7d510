//===- tests/ObsTest.cpp - Observability layer unit tests ------------------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// Covers the obs instruments and registry, the zero-overhead-when-disabled
// contract (null handles), exporter golden outputs, the determinism
// property — the same seed produces a bit-identical exported snapshot, for
// runtime fleet runs, for deployment simulations, and for offline trace
// replay — and the metrics server, refusals included.
//
//===----------------------------------------------------------------------===//

#include "corpus/Patterns.h"
#include "obs/DetectorMetrics.h"
#include "obs/RuntimeMetrics.h"
#include "obs/Export.h"
#include "obs/Http.h"
#include "obs/Metrics.h"
#include "obs/Timeline.h"
#include "pipeline/Deployment.h"
#include "rt/Instr.h"
#include "rt/Runtime.h"
#include "rt/Sync.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "trace/Offline.h"
#include "trace/Trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

using namespace grs;
using namespace grs::obs;

namespace {

//===----------------------------------------------------------------------===//
// Instrument basics
//===----------------------------------------------------------------------===//

TEST(Obs, CounterIncAndMirror) {
  Registry R;
  Counter *C = R.counter("grs_test_ops_total");
  ASSERT_NE(C, nullptr);
  C->inc();
  C->inc(4);
  EXPECT_EQ(C->value(), 5u);
  C->mirror(17);
  EXPECT_EQ(C->value(), 17u);
  // Find-or-create returns the same instrument.
  EXPECT_EQ(R.counter("grs_test_ops_total"), C);
}

TEST(Obs, GaugeSetAndAdd) {
  Registry R;
  Gauge *G = R.gauge("grs_test_depth");
  G->set(2.5);
  G->add(-1.0);
  EXPECT_DOUBLE_EQ(G->value(), 1.5);
}

TEST(Obs, TimeseriesAppendAndToSeries) {
  Registry R;
  Timeseries *S = R.timeseries("grs_test_daily");
  EXPECT_DOUBLE_EQ(S->back(), 0.0);
  S->append(1.0);
  S->append(2.5);
  EXPECT_EQ(S->size(), 2u);
  EXPECT_DOUBLE_EQ(S->back(), 2.5);
  support::Series Out = S->toSeries("daily");
  EXPECT_EQ(Out.Name, "daily");
  EXPECT_EQ(Out.Values, (std::vector<double>{1.0, 2.5}));
}

TEST(Obs, LabelsAreSortedIntoOneInstrument) {
  Registry R;
  Counter *A = R.counter("grs_test_total", {{"b", "2"}, {"a", "1"}});
  Counter *B = R.counter("grs_test_total", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(A, B);
  InstrumentKey Key{"grs_test_total", {{"a", "1"}, {"b", "2"}}};
  EXPECT_EQ(Key.str(), "grs_test_total{a=\"1\",b=\"2\"}");
}

TEST(Obs, CounterTotalSumsAcrossLabelSets) {
  Registry R;
  R.counter("grs_test_total", {{"seed", "1"}})->inc(3);
  R.counter("grs_test_total", {{"seed", "2"}})->inc(4);
  R.counter("grs_other_total")->inc(100);
  EXPECT_EQ(R.counterTotal("grs_test_total"), 7u);
  EXPECT_EQ(R.counterTotal("grs_missing_total"), 0u);
}

TEST(Obs, FindersReturnNullWhenAbsent) {
  Registry R;
  EXPECT_EQ(R.findCounter("grs_nope_total"), nullptr);
  EXPECT_EQ(R.findGauge("grs_nope"), nullptr);
  EXPECT_EQ(R.findHistogram("grs_nope"), nullptr);
  EXPECT_EQ(R.findTimeseries("grs_nope"), nullptr);
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(Obs, HistogramBasicStatsAndNaNRejection) {
  Histogram H({/*FirstBucketUpper=*/1.0, /*Growth=*/2.0, /*MaxBuckets=*/8});
  EXPECT_EQ(H.count(), 0u);
  EXPECT_TRUE(std::isnan(H.quantile(0.5)));
  H.observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(H.count(), 0u);
  H.observe(0.5);
  H.observe(3.0);
  H.observe(3.0);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_DOUBLE_EQ(H.sum(), 6.5);
  EXPECT_DOUBLE_EQ(H.min(), 0.5);
  EXPECT_DOUBLE_EQ(H.max(), 3.0);
  EXPECT_NEAR(H.mean(), 6.5 / 3.0, 1e-12);
  // Quantiles never leave the observed envelope.
  EXPECT_GE(H.quantile(0.0), 0.5);
  EXPECT_LE(H.quantile(1.0), 3.0);
}

TEST(Obs, HistogramOverflowBucketAbsorbsLargeValues) {
  Histogram H({/*FirstBucketUpper=*/1.0, /*Growth=*/2.0, /*MaxBuckets=*/4});
  H.observe(0.5);   // bucket 0: (-inf, 1]
  H.observe(3.0);   // bucket 2: (2, 4]
  H.observe(1e9);   // overflow bucket 3
  ASSERT_EQ(H.numBuckets(), 4u);
  EXPECT_EQ(H.bucketCount(0), 1u);
  EXPECT_EQ(H.bucketCount(1), 0u);
  EXPECT_EQ(H.bucketCount(2), 1u);
  EXPECT_EQ(H.bucketCount(3), 1u);
  EXPECT_TRUE(std::isinf(H.bucketUpperEdge(3)));
}

TEST(Obs, HistogramQuantileMatchesExactWithinBucketResolution) {
  // Fine-grained buckets (5% growth): the histogram quantile must agree
  // with support::quantile to within roughly one bucket's relative width.
  Histogram H({/*FirstBucketUpper=*/1.0, /*Growth=*/1.05,
               /*MaxBuckets=*/160});
  support::Rng Rng(42);
  std::vector<double> Samples;
  for (int I = 0; I < 2000; ++I) {
    double V = std::exp(std::log(1000.0) * Rng.nextDouble());
    Samples.push_back(V);
    H.observe(V);
  }
  for (double Q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    double Exact = support::quantile(Samples, Q);
    double Approx = H.quantile(Q);
    EXPECT_NEAR(Approx, Exact, 0.08 * Exact + 0.01)
        << "quantile " << Q << " diverged";
  }
}

//===----------------------------------------------------------------------===//
// Disabled registry: the zero-overhead contract
//===----------------------------------------------------------------------===//

TEST(Obs, DisabledRegistryHandsOutNullHandles) {
  Registry R(/*Enabled=*/false);
  EXPECT_FALSE(R.enabled());
  EXPECT_EQ(R.counter("grs_x_total"), nullptr);
  EXPECT_EQ(R.gauge("grs_x"), nullptr);
  EXPECT_EQ(R.histogram("grs_x"), nullptr);
  EXPECT_EQ(R.timeseries("grs_x"), nullptr);
  EXPECT_TRUE(R.counters().empty());
  // Null-safe helpers are no-ops, not crashes.
  inc(nullptr);
  set(nullptr, 1.0);
  observe(nullptr, 1.0);
  append(nullptr, 1.0);
  // Exports of an empty registry are empty strings.
  EXPECT_EQ(prometheusText(R), "");
  EXPECT_EQ(jsonLines(R), "");
}

TEST(Obs, RuntimeTreatsDisabledRegistryAsAbsent) {
  Registry Disabled(/*Enabled=*/false);
  rt::RunOptions Opts;
  Opts.Seed = 3;
  Opts.Metrics = &Disabled;
  rt::RunResult Result = corpus::allPatterns().front().RunRacy(Opts);
  (void)Result;
  EXPECT_TRUE(Disabled.counters().empty());
  EXPECT_TRUE(Disabled.histograms().empty());
}

//===----------------------------------------------------------------------===//
// Exporter goldens
//===----------------------------------------------------------------------===//

/// Builds the small fixed registry both golden tests snapshot.
void buildGoldenRegistry(Registry &R) {
  R.counter("grs_test_ops_total")->inc(3);
  R.counter("grs_test_ops_total", {{"kind", "write"}})->inc(2);
  R.gauge("grs_test_ratio")->set(0.5);
  Histogram *H = R.histogram(
      "grs_test_latency", {},
      {/*FirstBucketUpper=*/1.0, /*Growth=*/2.0, /*MaxBuckets=*/4});
  H->observe(0.5);
  H->observe(3.0);
  H->observe(100.0);
  Timeseries *S = R.timeseries("grs_test_series");
  S->append(1.0);
  S->append(2.5);
}

TEST(Obs, PrometheusGolden) {
  Registry R;
  buildGoldenRegistry(R);
  EXPECT_EQ(prometheusText(R),
            "# TYPE grs_test_ops_total counter\n"
            "grs_test_ops_total 3\n"
            "grs_test_ops_total{kind=\"write\"} 2\n"
            "# TYPE grs_test_ratio gauge\n"
            "grs_test_ratio 0.5\n"
            "# TYPE grs_test_latency histogram\n"
            "grs_test_latency_bucket{le=\"1\"} 1\n"
            "grs_test_latency_bucket{le=\"2\"} 1\n"
            "grs_test_latency_bucket{le=\"4\"} 2\n"
            "grs_test_latency_bucket{le=\"+Inf\"} 3\n"
            "grs_test_latency_sum 103.5\n"
            "grs_test_latency_count 3\n"
            "# TYPE grs_test_series gauge\n"
            "grs_test_series 2.5\n"
            "grs_test_series_points 2\n");
}

TEST(Obs, JsonLinesGolden) {
  Registry R;
  buildGoldenRegistry(R);
  EXPECT_EQ(
      jsonLines(R),
      "{\"type\":\"counter\",\"name\":\"grs_test_ops_total\",\"labels\":{},"
      "\"value\":3}\n"
      "{\"type\":\"counter\",\"name\":\"grs_test_ops_total\",\"labels\":{"
      "\"kind\":\"write\"},\"value\":2}\n"
      "{\"type\":\"gauge\",\"name\":\"grs_test_ratio\",\"labels\":{},"
      "\"value\":0.5}\n"
      "{\"type\":\"histogram\",\"name\":\"grs_test_latency\",\"labels\":{},"
      "\"count\":3,\"sum\":103.5,\"min\":0.5,\"max\":100,\"buckets\":["
      "{\"le\":\"1\",\"count\":1},{\"le\":\"2\",\"count\":0},"
      "{\"le\":\"4\",\"count\":1},{\"le\":\"+Inf\",\"count\":1}]}\n"
      "{\"type\":\"series\",\"name\":\"grs_test_series\",\"labels\":{},"
      "\"values\":[1,2.5]}\n");
}

//===----------------------------------------------------------------------===//
// Determinism: same seed => bit-identical snapshot
//===----------------------------------------------------------------------===//

/// Runs every corpus pattern once (racy variant) against \p R.
void runFleetInto(Registry &R, uint64_t Seed) {
  for (const corpus::Pattern &P : corpus::allPatterns()) {
    rt::RunOptions Opts;
    Opts.Seed = Seed;
    Opts.Metrics = &R;
    P.RunRacy(Opts);
  }
}

TEST(Obs, FleetSnapshotIsSeedDeterministic) {
  Registry R1, R2;
  runFleetInto(R1, 7);
  runFleetInto(R2, 7);
  std::string Snap = jsonLines(R1);
  EXPECT_EQ(Snap, jsonLines(R2));
  EXPECT_EQ(prometheusText(R1), prometheusText(R2));
  // The snapshot actually covers the runtime and detector layers.
  EXPECT_NE(Snap.find("grs_rt_context_switches_total"), std::string::npos);
  EXPECT_NE(Snap.find("grs_race_reads_total"), std::string::npos);
}

TEST(Obs, DeploymentSnapshotIsSeedDeterministic) {
  pipeline::DeploymentConfig Config;
  Config.Seed = 11;
  Config.Days = 40;
  Config.InitialLatentRaces = 120;
  Registry R1, R2;

  Config.Metrics = &R1;
  pipeline::DeploymentSimulator Sim1(Config);
  pipeline::DeploymentOutcome O1 = Sim1.run();
  Config.Metrics = &R2;
  pipeline::DeploymentSimulator Sim2(Config);
  pipeline::DeploymentOutcome O2 = Sim2.run();

  EXPECT_EQ(jsonLines(R1), jsonLines(R2));
  // And the Outcome is a view of the same instruments.
  EXPECT_EQ(O1.TotalFixedTasks,
            R1.findCounter("grs_pipeline_tasks_fixed_total")->value());
  EXPECT_EQ(O1.UniquePatches,
            R1.findCounter("grs_pipeline_patches_total")->value());
  EXPECT_EQ(O1.Outstanding.Values,
            R1.findTimeseries("grs_pipeline_outstanding_races")->values());
  EXPECT_EQ(O2.TotalDetectedRaces, O1.TotalDetectedRaces);
}

TEST(Obs, ReplaySnapshotIsDeterministicAndMatchesOnlineVerdicts) {
  // Record one instrumented run, with online metrics and a trace tee.
  trace::TraceSink Sink;
  Registry Online;
  for (const corpus::Pattern &P : corpus::allPatterns()) {
    rt::RunOptions Opts;
    Opts.Seed = 13;
    Opts.Metrics = &Online;
    Opts.Trace = &Sink;
    P.RunRacy(Opts);
  }

  auto ReplayInto = [&](Registry &R, const trace::TraceSink &From) {
    trace::OfflineDetector Offline;
    DetectorObserver Observer(R, &Offline.det());
    Offline.det().setEventObserver(&Observer);
    Offline.setMetrics(&R);
    ASSERT_TRUE(Offline.replayBytes(From.bytes())) << Offline.error();
    Observer.sync();
  };
  Registry R1, R2;
  ReplayInto(R1, Sink);
  ReplayInto(R2, Sink);
  EXPECT_EQ(jsonLines(R1), jsonLines(R2));

  // Replay consumed exactly the recorded events, and re-derived the same
  // memory-access stream the online detectors saw.
  EXPECT_EQ(R1.findCounter("grs_trace_replay_events_total")->value(),
            Sink.eventCount());
  for (const char *Name :
       {"grs_race_reads_total", "grs_race_writes_total",
        "grs_race_eraser_transitions_total"})
    EXPECT_EQ(R1.findCounter(Name)->value(),
              Online.findCounter(Name)->value())
        << Name;
  // Report-count parity only holds per-execution: concatenating the whole
  // fleet into one offline detector dedups race fingerprints across runs.
  // Replay a single pattern's trace and demand exact verdict parity there.
  trace::TraceSink OneSink;
  Registry OneOnline;
  rt::RunOptions OneOpts;
  OneOpts.Seed = 13;
  OneOpts.Metrics = &OneOnline;
  OneOpts.Trace = &OneSink;
  corpus::allPatterns().front().RunRacy(OneOpts);
  Registry OneReplay;
  ReplayInto(OneReplay, OneSink);
  uint64_t Emitted =
      OneOnline.findCounter("grs_race_reports_emitted_total")->value();
  EXPECT_GT(Emitted, 0u) << "pattern produced no race report to compare";
  EXPECT_EQ(OneReplay.findCounter("grs_race_reports_emitted_total")->value(),
            Emitted);
}

TEST(Obs, RuntimeInstrumentRegistrationIsAmortized) {
  // 1000 Runtimes against ONE registry: the handle bundle is resolved
  // once, the per-seed preemption counter is memoized, a single pooled
  // DetectorObserver is recycled, and the registry's instrument
  // population stops growing after the first run.
  Registry R;
  RuntimeInstruments *Bundle = R.runtimeInstruments();
  ASSERT_NE(Bundle, nullptr);
  EXPECT_EQ(R.runtimeInstruments(), Bundle); // lazy singleton, stable
  Counter *Preempt = Bundle->preemptionsForSeed(21);
  EXPECT_EQ(Bundle->preemptionsForSeed(21), Preempt);

  auto RunOnce = [&R] {
    rt::RunOptions Opts;
    Opts.Seed = 21;
    Opts.Metrics = &R;
    rt::Runtime RT(Opts);
    return RT.run([] {
      auto X = std::make_shared<rt::Shared<int>>("x", 0);
      rt::WaitGroup Wg;
      Wg.add(1);
      rt::go("w", [X, &Wg] {
        X->store(1);
        Wg.done();
      });
      X->store(2);
      Wg.wait();
    });
  };

  RunOnce();
  uint64_t OneRunSwitches =
      R.findCounter("grs_rt_context_switches_total")->value();
  size_t CountersAfterOne = R.counters().size();
  size_t HistogramsAfterOne = R.histograms().size();

  for (int I = 0; I < 999; ++I)
    RunOnce();

  // Serial Runtime churn recycles one pooled observer...
  EXPECT_EQ(Bundle->observersCreated(), 1u);
  // ...resolves no new instruments...
  EXPECT_EQ(R.counters().size(), CountersAfterOne);
  EXPECT_EQ(R.histograms().size(), HistogramsAfterOne);
  // ...and the cached handles still accumulate every run (the runs are
  // seed-deterministic, so totals are exact multiples).
  EXPECT_EQ(R.findCounter("grs_rt_context_switches_total")->value(),
            1000 * OneRunSwitches);
  EXPECT_EQ(Preempt, Bundle->preemptionsForSeed(21));
}

TEST(Obs, DetectorObserverAccumulatesAcrossRuntimes) {
  // Two identical runs sharing one registry: fleet counters must sum, not
  // overwrite (delta-sync semantics).
  Registry Once, Twice;
  runFleetInto(Once, 9);
  runFleetInto(Twice, 9);
  runFleetInto(Twice, 9);
  EXPECT_EQ(Twice.findCounter("grs_race_reads_total")->value(),
            2 * Once.findCounter("grs_race_reads_total")->value());
  EXPECT_EQ(Twice.findCounter("grs_rt_context_switches_total")->value(),
            2 * Once.findCounter("grs_rt_context_switches_total")->value());
}

TEST(Obs, PeakGaugesStayMonotoneWhenScrapeStraddlesGc) {
  // A sync() before a collection and a sync() after it: the live
  // shadow-cell gauge may fall, but the peak gauges must never — the
  // detector samples its high-water marks before reclaiming, so a scrape
  // landing just after a GC cycle still reports the pre-GC peak.
  Registry Reg;
  race::DetectorOptions Opts; // GC on by default; collect via gcNow().
  Opts.GcIntervalEvents = 0;
  race::Detector Det(Opts);
  DetectorObserver Observer(Reg, &Det);

  race::Tid T0 = Det.newRootGoroutine();
  race::Tid T1 = Det.fork(T0);
  race::StrId W = Det.interner().intern("w"); // Named: keeps a residue.
  for (race::Addr A = 0x700; A < 0x740; ++A)
    Det.onWrite(T1, A, W);
  Observer.sync(); // Scrape 1: peak == live == 64 cells.
  double Live1 = Reg.findGauge("grs_race_shadow_cells")->value();
  double Peak1 = Reg.findGauge("grs_detector_shadow_cells_peak")->value();
  EXPECT_EQ(Live1, 64.0);
  EXPECT_GE(Peak1, 64.0);

  Det.finish(T1);
  Det.join(T0, T1);
  Det.gcNow(); // Everything T1 wrote is dominated: retired.
  Observer.sync(); // Scrape 2 straddles the collection.

  EXPECT_LT(Reg.findGauge("grs_race_shadow_cells")->value(), Live1);
  EXPECT_GE(Reg.findGauge("grs_detector_shadow_cells_peak")->value(),
            Peak1);
  EXPECT_GE(Reg.findGauge("grs_detector_shadow_vc_words_peak")->value(),
            0.0);
  EXPECT_GE(Reg.findGauge("grs_detector_retired_cells")->value(), 1.0);
  EXPECT_GE(Reg.findCounter("grs_detector_gc_runs_total")->value(), 1.0);
  EXPECT_GE(
      Reg.findCounter("grs_detector_gc_reclaimed_cells_total")->value(),
      1.0);

  // A third scrape with no new work: counters must not double-count the
  // same collection (delta-sync), peaks must hold.
  double Runs = Reg.findCounter("grs_detector_gc_runs_total")->value();
  Observer.sync();
  EXPECT_EQ(Reg.findCounter("grs_detector_gc_runs_total")->value(), Runs);
  EXPECT_GE(Reg.findGauge("grs_detector_shadow_cells_peak")->value(),
            Peak1);
}

//===----------------------------------------------------------------------===//
// Prometheus /metrics endpoint (PR-5)
//===----------------------------------------------------------------------===//

#if defined(__unix__) || defined(__APPLE__)

/// Sends the raw bytes \p Req to 127.0.0.1:\p Port and reads to end of
/// file; returns the raw response (status line, headers, body) or "" on
/// connection failure.
std::string httpSend(uint16_t Port, const std::string &Req) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return "";
  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    ::close(Fd);
    return "";
  }
  size_t Off = 0;
  while (Off < Req.size()) {
    ssize_t N = ::write(Fd, Req.data() + Off, Req.size() - Off);
    if (N <= 0)
      break;
    Off += static_cast<size_t>(N);
  }
  std::string Resp;
  char Buf[4096];
  ssize_t N;
  while ((N = ::read(Fd, Buf, sizeof(Buf))) > 0)
    Resp.append(Buf, static_cast<size_t>(N));
  ::close(Fd);
  return Resp;
}

/// One-shot HTTP GET of \p Target against 127.0.0.1:\p Port.
std::string httpGet(uint16_t Port, const std::string &Target) {
  return httpSend(Port, "GET " + Target + " HTTP/1.1\r\nHost: l\r\n\r\n");
}

/// Milliseconds since \p Start.
int64_t millisSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

TEST(MetricsServer, ServesPublishedSnapshotsOverLoopback) {
  Registry R;
  R.counter("grs_demo_total")->inc(7);

  MetricsServer S;
  ASSERT_TRUE(S.start(0)) << "ephemeral loopback bind must succeed";
  EXPECT_TRUE(S.running());
  ASSERT_NE(S.port(), 0);
  S.publishRegistry(R);

  // A scrape sees exactly the published snapshot, as Prometheus text.
  std::string Resp = httpGet(S.port(), "/metrics");
  EXPECT_NE(Resp.find("HTTP/1.1 200"), std::string::npos) << Resp;
  EXPECT_NE(Resp.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(Resp.find(prometheusText(R)), std::string::npos);
  EXPECT_EQ(S.scrapeCount(), 1u);

  // "/" is an alias; anything else is 404 and not counted as a scrape.
  EXPECT_NE(httpGet(S.port(), "/").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(httpGet(S.port(), "/teapot").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_EQ(S.scrapeCount(), 2u);

  // Re-publishing swaps the snapshot the next scrape sees (the owner's
  // serial point; the serving thread never touches the registry).
  R.counter("grs_demo_total")->inc(1);
  S.publishRegistry(R);
  EXPECT_NE(httpGet(S.port(), "/metrics").find("grs_demo_total 8"),
            std::string::npos);

  // The port is genuinely held: a second server cannot bind it.
  MetricsServer Squatter;
  EXPECT_FALSE(Squatter.start(S.port()));

  S.stop();
  EXPECT_FALSE(S.running());
  S.stop(); // idempotent, like the destructor
}

TEST(MetricsServer, ServesJsonLinesSnapshot) {
  Registry R;
  R.counter("grs_demo_total")->inc(3);
  R.gauge("grs_demo_depth")->set(2.5);

  MetricsServer S;
  ASSERT_TRUE(S.start(0));
  S.publishRegistry(R); // renders BOTH formats from one walk

  std::string Resp = httpGet(S.port(), "/metrics.jsonl");
  EXPECT_NE(Resp.find("HTTP/1.1 200"), std::string::npos) << Resp;
  EXPECT_NE(Resp.find("application/jsonlines"), std::string::npos);
  EXPECT_NE(Resp.find(jsonLines(R)), std::string::npos)
      << "body must be the jsonLines render of the published registry";
  EXPECT_EQ(S.scrapeCount(), 1u) << "jsonl scrapes count like text scrapes";

  // publishJson alone swaps only the JSON snapshot; the text endpoint
  // keeps serving the previous Prometheus render.
  std::string PromBefore = httpGet(S.port(), "/metrics");
  S.publishJson("{\"name\":\"custom\"}\n");
  EXPECT_NE(httpGet(S.port(), "/metrics.jsonl").find("{\"name\":\"custom\"}"),
            std::string::npos);
  EXPECT_EQ(httpGet(S.port(), "/metrics"), PromBefore);

  S.stop();
}

TEST(MetricsServer, HealthzTraceJsonAndEndpointListing404) {
  MetricsServer S;
  ASSERT_TRUE(S.start(0));

  // /healthz is the liveness probe: always 200 "ok", and deliberately NOT
  // counted as a scrape — a kubelet poking it every second must not
  // drown out the "did Prometheus actually pull metrics" signal.
  std::string Health = httpGet(S.port(), "/healthz");
  EXPECT_NE(Health.find("HTTP/1.1 200"), std::string::npos) << Health;
  EXPECT_NE(Health.find("\r\n\r\nok\n"), std::string::npos) << Health;
  EXPECT_EQ(S.scrapeCount(), 0u);

  // /trace.json serves an empty-but-loadable document before any
  // publishTrace, so a dashboard can poll it unconditionally.
  std::string Trace = httpGet(S.port(), "/trace.json");
  EXPECT_NE(Trace.find("HTTP/1.1 200"), std::string::npos) << Trace;
  EXPECT_NE(Trace.find("application/json"), std::string::npos);
  EXPECT_NE(Trace.find("{\"traceEvents\":[]}"), std::string::npos);
  EXPECT_EQ(S.scrapeCount(), 1u) << "trace pulls count like metric scrapes";

  // publishTrace swaps the snapshot the next pull sees.
  Timeline Tl(/*Enabled=*/true);
  Tl.setClock([] { return uint64_t(1000); });
  Tl.track("live")->instant("tick");
  S.publishTrace(Tl.chromeTraceJson());
  EXPECT_NE(httpGet(S.port(), "/trace.json").find("\"name\":\"tick\""),
            std::string::npos);

  // The 404 body names every valid endpoint, so a curl typo is
  // self-diagnosing.
  std::string Miss = httpGet(S.port(), "/metrics.json");
  EXPECT_NE(Miss.find("HTTP/1.1 404"), std::string::npos) << Miss;
  EXPECT_NE(Miss.find("valid endpoints"), std::string::npos) << Miss;
  EXPECT_NE(Miss.find("/trace.json"), std::string::npos);
  EXPECT_NE(Miss.find("/healthz"), std::string::npos);
  EXPECT_NE(Miss.find("/metrics.jsonl"), std::string::npos);

  S.stop();
}

TEST(MetricsServer, OverlongContentLengthIsRefusedBeforeAnyBody) {
  MetricsServer S;
  ASSERT_TRUE(S.start(0));
  // Twice the cap, then 2^64 - 1, 2^64 and 2^64 + 1, which a 64-bit
  // parse without saturation wraps to -1, 0 and 1.
  const char *Lengths[] = {"2097152", "18446744073709551615",
                           "18446744073709551616", "18446744073709551617"};
  for (const char *Len : Lengths) {
    auto Start = std::chrono::steady_clock::now();
    std::string Resp =
        httpSend(S.port(), std::string("GET /healthz HTTP/1.1\r\nHost: l\r\n"
                                       "Content-Length: ") +
                               Len + "\r\n\r\n");
    EXPECT_NE(Resp.find("HTTP/1.1 413"), std::string::npos)
        << "Content-Length " << Len << ": " << Resp;
    EXPECT_LT(millisSince(Start),
              static_cast<int64_t>(MetricsServer::ReadTimeoutMillis))
        << "Content-Length " << Len << " waited for a body";
  }
  EXPECT_EQ(S.overlargeCount(), 4u);
  EXPECT_EQ(S.timeoutCount(), 0u);
  S.stop();
}

TEST(MetricsServer, MalformedRequestLineGets400) {
  MetricsServer S;
  ASSERT_TRUE(S.start(0));
  std::string Resp = httpSend(S.port(), "GARBAGE\r\nHost: l\r\n\r\n");
  EXPECT_NE(Resp.find("HTTP/1.1 400"), std::string::npos) << Resp;
  EXPECT_NE(Resp.find("malformed request"), std::string::npos) << Resp;
  EXPECT_EQ(S.overlargeCount(), 0u);
  EXPECT_EQ(S.timeoutCount(), 0u);
  S.stop();
}

TEST(MetricsServer, SilentHalfRequestTimesOutWith408) {
  MetricsServer S;
  ASSERT_TRUE(S.start(0));
  // Half a request line, then silence: the slowloris shape holds the one
  // serving thread for exactly the read timeout, then gets 408.
  auto Start = std::chrono::steady_clock::now();
  std::string Resp = httpSend(S.port(), "GET /heal");
  int64_t Waited = millisSince(Start);
  EXPECT_NE(Resp.find("HTTP/1.1 408"), std::string::npos) << Resp;
  // The server rounds the time left down to whole milliseconds, so it
  // may answer up to 1 ms before the timeout.
  EXPECT_GE(Waited + 1,
            static_cast<int64_t>(MetricsServer::ReadTimeoutMillis));
  EXPECT_EQ(S.timeoutCount(), 1u);
  // The serving thread is free again at once.
  Start = std::chrono::steady_clock::now();
  std::string Health = httpGet(S.port(), "/healthz");
  EXPECT_NE(Health.find("HTTP/1.1 200"), std::string::npos) << Health;
  EXPECT_LT(millisSince(Start), 1'000);
  S.stop();
}

#endif // sockets

TEST(MetricsServer, IntervalPublisherHonorsItsInterval) {
  Registry R;
  R.counter("grs_demo_total")->inc(1);

  MetricsServer S; // not started: publishing only stores snapshots
  IntervalPublisher Pub(S, /*IntervalMillis=*/1000);
  uint64_t FakeNow = 5000;
  Pub.setClock([&FakeNow] { return FakeNow; });

  // The first tick always publishes (there is nothing to be stale
  // relative to), then the interval gates.
  EXPECT_TRUE(Pub.tick(R));
  EXPECT_EQ(Pub.publishCount(), 1u);
  FakeNow += 400;
  EXPECT_FALSE(Pub.tick(R));
  FakeNow += 400;
  EXPECT_FALSE(Pub.tick(R));
  EXPECT_EQ(Pub.publishCount(), 1u);
  FakeNow += 300; // 1100ms since the last publish
  EXPECT_TRUE(Pub.tick(R));
  EXPECT_EQ(Pub.publishCount(), 2u);

  // force() publishes regardless of the interval and resets the clock.
  Pub.force(R);
  EXPECT_EQ(Pub.publishCount(), 3u);
  EXPECT_FALSE(Pub.tick(R));
  FakeNow += 1000;
  EXPECT_TRUE(Pub.tick(R));
  EXPECT_EQ(Pub.publishCount(), 4u);
}

//===----------------------------------------------------------------------===//
// Flight-recorder timelines (PR-7)
//===----------------------------------------------------------------------===//

/// Installs a deterministic clock on \p Tl: call N returns N * \p StepNs.
void installTimelineClock(Timeline &Tl, uint64_t StepNs = 1000) {
  auto T = std::make_shared<uint64_t>(0);
  Tl.setClock([T, StepNs] { return *T += StepNs; });
}

TEST(Timeline, GoldenChromeTraceJsonUnderInjectedClock) {
  Timeline Tl(/*Enabled=*/true);
  installTimelineClock(Tl); // 1000, 2000, 3000, ... ns
  TimelineTrack *T = Tl.track("worker-0");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(Tl.track("worker-0"), T) << "track() is find-or-create";

  T->begin("sweep", "\"slot\":3");
  T->instant("retry");
  T->counter("depth", 2.5);
  T->end(); // closes "sweep"

  // The export is byte-deterministic under a deterministic clock: one
  // thread_name metadata record per track, then the events with
  // microsecond timestamps at fixed sub-microsecond precision.
  EXPECT_EQ(
      Tl.chromeTraceJson(),
      "{\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"worker-0\"}},\n"
      "{\"ph\":\"B\",\"pid\":0,\"tid\":1,\"ts\":1.000,\"name\":\"sweep\","
      "\"args\":{\"slot\":3}},\n"
      "{\"ph\":\"i\",\"pid\":0,\"tid\":1,\"ts\":2.000,\"name\":\"retry\","
      "\"s\":\"t\"},\n"
      "{\"ph\":\"C\",\"pid\":0,\"tid\":1,\"ts\":3.000,\"name\":\"depth\","
      "\"args\":{\"value\":2.5}},\n"
      "{\"ph\":\"E\",\"pid\":0,\"tid\":1,\"ts\":4.000,\"name\":\"sweep\"}\n"
      "],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(Timeline, DisabledTimelineIsInertAndNeverReadsTheClock) {
  Timeline Off(/*Enabled=*/false);
  // The zero-overhead contract: a disabled timeline never even samples
  // time, so the fake clock doubles as a tripwire.
  Off.setClock([]() -> uint64_t {
    ADD_FAILURE() << "disabled timeline read the clock";
    return 0;
  });

  EXPECT_FALSE(Off.enabled());
  TimelineTrack *T = Off.track("worker-0");
  EXPECT_EQ(T, nullptr) << "disabled timelines hand out null tracks";

  // Every recording path is a no-op on a null track.
  tlBegin(T, "span", "\"k\":1");
  tlInstant(T, "point");
  tlCounter(T, "gauge", 7.0);
  tlEnd(T);
  {
    TimelineScope Scope(T, "scoped");
    TimelineScope Default;
    TimelineScope Moved = std::move(Scope);
  }

  EXPECT_EQ(Off.numTracks(), 0u);
  EXPECT_EQ(Off.droppedTotal(), 0u);
  EXPECT_EQ(Off.chromeTraceJson(),
            "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(Timeline, RingOverwritesOldestAndCountsDropped) {
  Timeline::Options Opts;
  Opts.Enabled = true;
  Opts.TrackCapacity = 4;
  Timeline Tl(Opts);
  installTimelineClock(Tl);
  TimelineTrack *T = Tl.track("ring");

  for (int I = 0; I < 10; ++I)
    T->instant("e" + std::to_string(I));

  // Flight-recorder semantics: the newest 4 survive, the loss is counted
  // rather than silently absorbed.
  EXPECT_EQ(T->totalEvents(), 10u);
  EXPECT_EQ(T->size(), 4u);
  EXPECT_EQ(T->droppedEvents(), 6u);
  EXPECT_EQ(Tl.droppedTotal(), 6u);
  EXPECT_EQ(T->str(T->event(0).NameId), "e6");
  EXPECT_EQ(T->str(T->event(3).NameId), "e9");
  EXPECT_EQ(T->event(3).TsNs, 10000u);
}

TEST(Timeline, TimelineScopeClosesSpansInNestingOrder) {
  Timeline Tl(/*Enabled=*/true);
  installTimelineClock(Tl);
  TimelineTrack *T = Tl.track("scoped");
  {
    TimelineScope Outer(T, "outer");
    TimelineScope Inner(T, "inner");
  } // Inner destructs first
  ASSERT_EQ(T->size(), 4u);
  EXPECT_EQ(T->event(0).Kind, TimelineEventKind::SpanBegin);
  EXPECT_EQ(T->str(T->event(0).NameId), "outer");
  EXPECT_EQ(T->event(2).Kind, TimelineEventKind::SpanEnd);
  EXPECT_EQ(T->str(T->event(2).NameId), "inner");
  EXPECT_EQ(T->str(T->event(3).NameId), "outer");

  // A stray end() with nothing open is swallowed, not UB.
  T->end();
  EXPECT_EQ(T->totalEvents(), 4u);
}

TEST(Timeline, ChunkRoundtripStitchesWithPidAttribution) {
  // Child side: a recording in a (simulated) forked process.
  Timeline Child(/*Enabled=*/true);
  installTimelineClock(Child);
  TimelineTrack *CT = Child.track("slot");
  CT->begin("attempt", "\"slot\":5");
  CT->counter("retries", 2.0);
  CT->end();

  std::vector<uint8_t> Wire;
  Timeline::encodeTrackChunk(Wire, *CT);
  ASSERT_FALSE(Wire.empty());

  // Parent side: adoption stitches the events into a pid-attributed
  // track without ever reading the parent's clock.
  Timeline Parent(/*Enabled=*/true);
  Parent.setClock([]() -> uint64_t {
    ADD_FAILURE() << "adoption read the parent clock";
    return 0;
  });
  size_t Pos = 0;
  ASSERT_TRUE(Parent.adoptTrackChunk(Wire.data(), Wire.size(), Pos,
                                     /*Pid=*/4242, "child-"));
  EXPECT_EQ(Pos, Wire.size()) << "adoption consumes the whole chunk";

  ASSERT_EQ(Parent.numTracks(), 1u);
  const TimelineTrack &PT = Parent.trackAt(0);
  EXPECT_EQ(PT.name(), "child-slot");
  EXPECT_EQ(PT.pid(), 4242u);
  ASSERT_EQ(PT.size(), 3u);
  EXPECT_EQ(PT.event(0).Kind, TimelineEventKind::SpanBegin);
  EXPECT_EQ(PT.str(PT.event(0).NameId), "attempt");
  EXPECT_EQ(PT.str(PT.event(0).ArgsId), "\"slot\":5");
  EXPECT_EQ(PT.event(0).TsNs, 1000u) << "child timestamps are preserved";
  EXPECT_EQ(PT.event(1).Kind, TimelineEventKind::Counter);
  EXPECT_DOUBLE_EQ(PT.event(1).Value, 2.0);
  EXPECT_EQ(PT.event(2).Kind, TimelineEventKind::SpanEnd);

  // The flush cursor makes chunks incremental: a second encode carries
  // only the events recorded since, and adoption appends to the same
  // stitched track.
  std::vector<uint8_t> Empty;
  Timeline::encodeTrackChunk(Empty, *CT);
  size_t EmptyPos = 0;
  ASSERT_TRUE(Parent.adoptTrackChunk(Empty.data(), Empty.size(), EmptyPos,
                                     4242, "child-"));
  EXPECT_EQ(Parent.trackAt(0).size(), 3u) << "no new events, no new imports";

  CT->instant("heartbeat");
  std::vector<uint8_t> Delta;
  Timeline::encodeTrackChunk(Delta, *CT);
  size_t DeltaPos = 0;
  ASSERT_TRUE(Parent.adoptTrackChunk(Delta.data(), Delta.size(), DeltaPos,
                                     4242, "child-"));
  ASSERT_EQ(Parent.numTracks(), 1u) << "same (name, pid) -> same track";
  ASSERT_EQ(Parent.trackAt(0).size(), 4u);
  EXPECT_EQ(PT.str(PT.event(3).NameId), "heartbeat");

  // A different pid is a different lane in the export.
  size_t OtherPos = 0;
  ASSERT_TRUE(Parent.adoptTrackChunk(Delta.data(), Delta.size(), OtherPos,
                                     4243, "child-"));
  EXPECT_EQ(Parent.numTracks(), 2u);
  EXPECT_EQ(Parent.trackAt(1).pid(), 4243u);
}

TEST(Timeline, AdoptRejectsMalformedChunksWithoutSideEffects) {
  Timeline Child(/*Enabled=*/true);
  installTimelineClock(Child);
  TimelineTrack *CT = Child.track("slot");
  CT->begin("attempt");
  CT->counter("retries", 1.5);
  CT->end();
  std::vector<uint8_t> Wire;
  Timeline::encodeTrackChunk(Wire, *CT);

  Timeline Parent(/*Enabled=*/true);
  // Every strict prefix of a valid chunk must be rejected with the
  // cursor untouched and no track materialized.
  for (size_t Cut = 0; Cut < Wire.size(); ++Cut) {
    size_t Pos = 0;
    EXPECT_FALSE(Parent.adoptTrackChunk(Wire.data(), Cut, Pos, 1, "c-"))
        << "truncation at byte " << Cut << " must not decode";
    EXPECT_EQ(Pos, 0u);
  }
  EXPECT_EQ(Parent.numTracks(), 0u);

  // And the intact chunk still decodes after all those failures.
  size_t Pos = 0;
  EXPECT_TRUE(Parent.adoptTrackChunk(Wire.data(), Wire.size(), Pos, 1, "c-"));
  EXPECT_EQ(Parent.numTracks(), 1u);
}

TEST(Timeline, ChunksCarryRingLossAndDisabledParentsDropCleanly) {
  Timeline::Options Opts;
  Opts.Enabled = true;
  Opts.TrackCapacity = 2;
  Timeline Child(Opts);
  installTimelineClock(Child);
  TimelineTrack *CT = Child.track("slot");
  for (int I = 0; I < 5; ++I)
    CT->instant("e" + std::to_string(I));

  std::vector<uint8_t> Wire;
  Timeline::encodeTrackChunk(Wire, *CT);

  // The 3 events lost to the ring before the flush travel as a dropped
  // count, so the parent's droppedTotal() stays honest across the pipe.
  Timeline Parent(/*Enabled=*/true);
  size_t Pos = 0;
  ASSERT_TRUE(Parent.adoptTrackChunk(Wire.data(), Wire.size(), Pos, 7, ""));
  ASSERT_EQ(Parent.numTracks(), 1u);
  EXPECT_EQ(Parent.trackAt(0).size(), 2u);
  EXPECT_EQ(Parent.droppedTotal(), 3u);

  // A disabled parent consumes the chunk (the pipe must stay in sync)
  // but records nothing.
  Timeline Off(/*Enabled=*/false);
  CT->instant("late");
  std::vector<uint8_t> Delta;
  Timeline::encodeTrackChunk(Delta, *CT);
  size_t OffPos = 0;
  EXPECT_TRUE(Off.adoptTrackChunk(Delta.data(), Delta.size(), OffPos, 7, ""));
  EXPECT_EQ(OffPos, Delta.size());
  EXPECT_EQ(Off.numTracks(), 0u);
}

} // namespace
