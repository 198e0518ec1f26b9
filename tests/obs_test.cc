// Unit and concurrency tests for the observability layer (src/obs/):
// sharded counters under thread fan-out, snapshot-consistent Collect(),
// histogram bucketing, the exporter's completeness contract, and the trace
// recorder's per-thread span buffers. Test-local metric names use the
// reserved "t." prefix (see obs/metric_names.h), which the registry serves
// from its overflow map and the lint registry check exempts.

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/algorithm1.h"
#include "core/answer.h"
#include "core/pass_engine.h"
#include "gen/erdos_renyi.h"
#include "obs/exporter.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/answer_plane.h"
#include "serve/query_service.h"
#include "stream/memory_stream.h"

namespace densest::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Get().ResetForTest();
    TraceRecorder::Get().ResetForTest();
  }
  void TearDown() override {
    MetricsRegistry::Get().ResetForTest();
    TraceRecorder::Get().ResetForTest();
  }
};

double CounterValue(const MetricsSnapshot& snap, std::string_view name) {
  for (const CounterSample& c : snap.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  ADD_FAILURE() << "counter " << name << " not in snapshot";
  return -1;
}

TEST_F(ObsTest, CounterExactTotalAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr uint64_t kIncsPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (uint64_t i = 0; i < kIncsPerThread; ++i) {
        DENSEST_METRIC_COUNTER("t.obs_counter").Inc();
      }
      DENSEST_METRIC_COUNTER("t.obs_counter_bulk").Inc(42);
    });
  }
  for (std::thread& t : threads) t.join();
  const MetricsSnapshot snap = MetricsRegistry::Get().Collect();
  EXPECT_EQ(CounterValue(snap, "t.obs_counter"), kThreads * kIncsPerThread);
  EXPECT_EQ(CounterValue(snap, "t.obs_counter_bulk"), kThreads * 42);
}

TEST_F(ObsTest, CollectIsMonotoneUnderConcurrentWriters) {
  // Four writers race Collect(): each collected total must be monotone
  // non-decreasing (stripes are monotone and read in order), and under
  // TSan this doubles as the torn-free data-race check for Collect.
  // Register the counter up front so the first Collect already sees it
  // even if no writer has managed an Inc yet.
  DENSEST_METRIC_COUNTER("t.obs_race").Inc();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        DENSEST_METRIC_COUNTER("t.obs_race").Inc();
      }
    });
  }
  double last = 1;
  for (int i = 0; i < 200; ++i) {
    const double v =
        CounterValue(MetricsRegistry::Get().Collect(), "t.obs_race");
    EXPECT_GE(v, last);
    last = v;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
}

TEST_F(ObsTest, GaugeHoldsLastSet) {
  DENSEST_METRIC_GAUGE("t.obs_gauge").Set(2.5);
  DENSEST_METRIC_GAUGE("t.obs_gauge").Set(-7.25);
  const MetricsSnapshot snap = MetricsRegistry::Get().Collect();
  bool found = false;
  for (const GaugeSample& g : snap.gauges) {
    if (g.name == "t.obs_gauge") {
      EXPECT_DOUBLE_EQ(g.value, -7.25);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, HistogramBucketsCountSumMinMax) {
  Histogram& h = MetricsRegistry::Get().GetHistogram("t.obs_hist");
  h.Observe(0.5);
  h.Observe(3.0);
  h.Observe(1000.0);
  h.Observe(-5.0);  // clamped to 0
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_DOUBLE_EQ(h.Sum(), 1003.5);
  EXPECT_DOUBLE_EQ(h.MinSeen(), 0.0);
  EXPECT_DOUBLE_EQ(h.MaxSeen(), 1000.0);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    bucket_total += h.BucketCount(i);
  }
  EXPECT_EQ(bucket_total, 4u);
}

TEST_F(ObsTest, HistogramSampleQuantileClampedToObservedRange) {
  Histogram& h = MetricsRegistry::Get().GetHistogram("t.obs_hist_q");
  for (int i = 0; i < 100; ++i) h.Observe(100.0);
  const MetricsSnapshot snap = MetricsRegistry::Get().Collect();
  for (const HistogramSample& s : snap.histograms) {
    if (s.name != "t.obs_hist_q") continue;
    EXPECT_EQ(s.count, 100u);
    // The log2 bucket upper bound for 100 is 128; the sample clamps the
    // quantile to the observed max.
    EXPECT_DOUBLE_EQ(s.Quantile(0.5), 100.0);
    EXPECT_DOUBLE_EQ(s.Quantile(0.99), 100.0);
    EXPECT_DOUBLE_EQ(s.Mean(), 100.0);
    return;
  }
  FAIL() << "t.obs_hist_q not collected";
}

TEST_F(ObsTest, DisabledRegistryDropsWrites) {
  MetricsRegistry::Get().set_enabled(false);
  DENSEST_METRIC_COUNTER("t.obs_off").Inc();
  DENSEST_METRIC_GAUGE("t.obs_off_g").Set(9);
  MetricsRegistry::Get().set_enabled(true);
  DENSEST_METRIC_COUNTER("t.obs_off").Inc();
  const MetricsSnapshot snap = MetricsRegistry::Get().Collect();
  EXPECT_EQ(CounterValue(snap, "t.obs_off"), 1);
}

TEST_F(ObsTest, PrometheusExpositionContainsEveryRegisteredName) {
  auto mangled = [](std::string_view name) {
    std::string out = "densest_";
    for (char c : name) out.push_back(c == '.' ? '_' : c);
    return out;
  };
  const std::string text = RenderMetricsPrometheus();
  for (std::string_view name : kCounterNames) {
    EXPECT_NE(text.find("\n" + mangled(name) + " "), std::string::npos)
        << "counter " << name << " absent from exposition";
  }
  for (std::string_view name : kGaugeNames) {
    EXPECT_NE(text.find("\n" + mangled(name) + " "), std::string::npos)
        << "gauge " << name << " absent from exposition";
  }
  for (std::string_view name : kHistogramNames) {
    EXPECT_NE(text.find(mangled(name) + "_count"), std::string::npos)
        << "histogram " << name << " absent from exposition";
    EXPECT_NE(text.find(mangled(name) + "_bucket{le=\"+Inf\"}"),
              std::string::npos)
        << "histogram " << name << " missing its +Inf bucket";
  }
}

TEST_F(ObsTest, HistogramExpositionBucketSumMatchesCount) {
  Histogram& h = MetricsRegistry::Get().GetHistogram("dynamic.query_latency_us");
  for (int i = 0; i < 7; ++i) h.Observe(static_cast<double>(1 << i));
  const std::string text = RenderMetricsPrometheus();
  const std::string inf =
      "densest_dynamic_query_latency_us_bucket{le=\"+Inf\"} 7";
  const std::string count = "densest_dynamic_query_latency_us_count 7";
  EXPECT_NE(text.find(inf), std::string::npos) << text;
  EXPECT_NE(text.find(count), std::string::npos) << text;
}

TEST_F(ObsTest, JsonMirrorRendersAllThreeKinds) {
  DENSEST_METRIC_COUNTER("core.passes").Inc(3);
  const std::string json =
      MetricsExporter::RenderJson(MetricsRegistry::Get().Collect());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"core.passes\": 3"), std::string::npos) << json;
}

TEST_F(ObsTest, SummaryLineShowsOnlyNonZero) {
  DENSEST_METRIC_COUNTER("core.passes").Inc(2);
  const std::string line =
      MetricsExporter::SummaryLine(MetricsRegistry::Get().Collect());
  EXPECT_NE(line.find("core.passes=2"), std::string::npos) << line;
  EXPECT_EQ(line.find("mr.jobs"), std::string::npos) << line;
}

// ------------------------------------------------------------- tracing --

#if defined(DENSEST_TRACING_ENABLED)

/// Spins until the recorder clock advances at least `us` microseconds, so
/// nested spans get strictly ordered timestamps.
void SpinMicros(uint64_t us) {
  const uint64_t start = TraceRecorder::Get().NowMicros();
  while (TraceRecorder::Get().NowMicros() - start < us) {
  }
}

TEST_F(ObsTest, MultiThreadedSpansAreWellNestedPerThread) {
  TraceRecorder::Get().Start();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      DENSEST_TRACE_SPAN("t.outer");
      SpinMicros(2);
      {
        DENSEST_TRACE_SPAN("t.inner");
        SpinMicros(2);
      }
      SpinMicros(2);
    });
  }
  for (std::thread& t : threads) t.join();
  TraceRecorder::Get().Stop();

  std::vector<TraceSpan> spans = TraceRecorder::Get().Drain();
  // One outer + one inner per thread; each thread's inner is strictly
  // contained in its outer.
  std::map<uint32_t, std::vector<TraceSpan>> by_tid;
  for (const TraceSpan& s : spans) by_tid[s.tid].push_back(s);
  int threads_with_spans = 0;
  for (const auto& [tid, list] : by_tid) {
    if (list.empty()) continue;
    ++threads_with_spans;
    ASSERT_EQ(list.size(), 2u) << "tid " << tid;
    const TraceSpan* outer = nullptr;
    const TraceSpan* inner = nullptr;
    for (const TraceSpan& s : list) {
      if (s.name == "t.outer") outer = &s;
      if (s.name == "t.inner") inner = &s;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_GE(inner->ts_us, outer->ts_us);
    EXPECT_LE(inner->ts_us + inner->dur_us, outer->ts_us + outer->dur_us);
    EXPECT_LT(inner->dur_us, outer->dur_us);
  }
  EXPECT_EQ(threads_with_spans, kThreads);
  EXPECT_EQ(TraceRecorder::Get().dropped(), 0u);
}

TEST_F(ObsTest, DrainToJsonEmitsCompleteEvents) {
  TraceRecorder::Get().Start();
  {
    DENSEST_TRACE_SPAN("t.outer");
    SpinMicros(1);
  }
  std::thread other([] {
    DENSEST_TRACE_SPAN("t.inner");
    SpinMicros(1);
  });
  other.join();
  TraceRecorder::Get().Stop();
  const std::string json = TraceRecorder::Get().DrainToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"t.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"t.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Braces and brackets balance (the quick structural sanity check; CI's
  // tools/check_obs.py does the real JSON parse).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST_F(ObsTest, SpansOutsideRecordingAreNotBuffered) {
  {
    DENSEST_TRACE_SPAN("t.outer");
    SpinMicros(1);
  }
  EXPECT_TRUE(TraceRecorder::Get().Drain().empty());
}

#endif  // DENSEST_TRACING_ENABLED

// ----------------------------------------------------- stats query kind --

TEST_F(ObsTest, SoloUnitWeightRunRecordsPassRounds) {
  // A 1-thread engine on a unit-weight stream: the cheapest solo path must
  // still count its rounds and open both round spans, or a traced solve
  // cannot attribute its kernel time.
  EdgeList el = ErdosRenyiGnm(300, 3000, 7);
  EdgeListStream stream(el);
  PassEngine engine(PassEngineOptions{.num_threads = 1});
  Algorithm1Options options;
  options.engine = &engine;
  TraceRecorder::Get().Start();
  StatusOr<UndirectedDensestResult> r = RunAlgorithm1(stream, options);
  TraceRecorder::Get().Stop();
  ASSERT_TRUE(r.ok());

  const MetricsSnapshot snap = MetricsRegistry::Get().Collect();
  EXPECT_GE(CounterValue(snap, "core.pass_rounds"),
            static_cast<double>(r->passes));
  EXPECT_EQ(CounterValue(snap, "core.passes"), static_cast<double>(r->passes));
  size_t pass_round = 0, fused_round = 0;
  for (const TraceSpan& span : TraceRecorder::Get().Drain()) {
    pass_round += span.name == "core.pass_round" ? 1 : 0;
    fused_round += span.name == "core.fused_round" ? 1 : 0;
  }
  EXPECT_GE(pass_round, r->passes);
  EXPECT_EQ(fused_round, pass_round);
}

TEST_F(ObsTest, StatsQueryKindServesExposition) {
  AnswerPlane plane(16);
  Answer a;
  a.density = 1.5;
  a.upper_bound = 3.0;
  a.size = 4;
  a.certified = true;
  const std::vector<NodeId> members = {1, 2, 3, 5};
  plane.Publish(a, members, 10);

  QueryServiceOptions opts;
  opts.num_readers = 2;
  QueryService service(plane, opts);
  const std::vector<ServeQuery> queries = {
      ServeQuery{ServeQuery::Kind::kStats, 0},
      ServeQuery{ServeQuery::Kind::kDensity, 0},
  };
  std::vector<ServeResult> results;
  ASSERT_TRUE(service.QueryBatch(queries, &results).ok());
  ASSERT_EQ(results.size(), 2u);
  // The stats result carries the exposition plus the same answer a density
  // query would have served; the density result has no stats text.
  EXPECT_NE(results[0].stats_text.find("densest_serve_publications 1"),
            std::string::npos)
      << results[0].stats_text;
  EXPECT_NE(results[0].stats_text.find("densest_serve_stats_queries"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(results[0].answer.density, 1.5);
  EXPECT_TRUE(results[1].stats_text.empty());
  service.Stop();

  const MetricsSnapshot snap = MetricsRegistry::Get().Collect();
  EXPECT_EQ(CounterValue(snap, "serve.stats_queries"), 1);
  EXPECT_EQ(CounterValue(snap, "serve.queries_served"), 2);
}

}  // namespace
}  // namespace densest::obs
