// obs::MetricsRegistry: instrument semantics (striped counter under
// threads, gauge, histogram `le` bucket math), pull collectors, and the
// two exporters — the Prometheus text exposition (validated line-by-line
// against the exposition grammar) and the DebugString snapshot.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <regex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gsi/matcher.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "test_util.h"

namespace gsi {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::MetricsSink;

TEST(CounterTest, SumsConcurrentIncrementsExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  // Striping spreads contention but must never lose an increment.
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads * kPerThread));
  c.Increment(5);
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads * kPerThread + 5));
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_EQ(g.Value(), -1.25);
}

TEST(HistogramTest, BucketForMatchesPrometheusLeSemantics) {
  const std::vector<double> bounds{1.0, 2.0, 5.0};
  // v <= bound lands in that bucket (Prometheus `le`), past the last bound
  // is the +Inf bucket at index bounds.size().
  EXPECT_EQ(Histogram::BucketFor(bounds, 0.5), 0u);
  EXPECT_EQ(Histogram::BucketFor(bounds, 1.0), 0u);
  EXPECT_EQ(Histogram::BucketFor(bounds, 1.0000001), 1u);
  EXPECT_EQ(Histogram::BucketFor(bounds, 2.0), 1u);
  EXPECT_EQ(Histogram::BucketFor(bounds, 5.0), 2u);
  EXPECT_EQ(Histogram::BucketFor(bounds, 5.1), 3u);
  EXPECT_EQ(Histogram::BucketFor(bounds, std::nan("")), 3u);
  EXPECT_EQ(Histogram::BucketFor({}, 42.0), 0u);
}

TEST(HistogramTest, ObserveFillsBucketsAndSum) {
  Histogram h({1.0, 10.0});
  h.Observe(0.5);
  h.Observe(1.0);
  h.Observe(5.0);
  h.Observe(100.0);
  Histogram::Snapshot s = h.GetSnapshot();
  ASSERT_EQ(s.bounds.size(), 2u);
  ASSERT_EQ(s.counts.size(), 3u);  // two bounds + the +Inf bucket
  EXPECT_EQ(s.counts[0], 2u);      // 0.5 and 1.0 (le semantics)
  EXPECT_EQ(s.counts[1], 1u);      // 5.0
  EXPECT_EQ(s.counts[2], 1u);      // 100.0
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 106.5);
}

TEST(MetricsRegistryTest, GetReturnsTheSameInstrumentForAName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("gsi_test_total", "help");
  Counter* b = registry.GetCounter("gsi_test_total", "help");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->Value(), 3u);
  EXPECT_NE(static_cast<void*>(registry.GetGauge("gsi_test_gauge", "h")),
            static_cast<void*>(a));
}

/// Every non-comment line of the exposition must match the text-format
/// grammar: `name{labels} value` or `name value`.
void ExpectValidPrometheus(const std::string& text) {
  static const std::regex sample_re(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (-?[0-9.eE+-]+|\+Inf|NaN)$)");
  static const std::regex comment_re(
      R"(^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$)");
  size_t lines = 0;
  std::string::size_type pos = 0;
  while (pos < text.size()) {
    std::string::size_type eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    ++lines;
    if (line[0] == '#') {
      EXPECT_TRUE(std::regex_match(line, comment_re)) << line;
    } else {
      EXPECT_TRUE(std::regex_match(line, sample_re)) << line;
    }
  }
  EXPECT_GT(lines, 0u);
}

TEST(MetricsRegistryTest, ExportPrometheusIsWellFormedAndDeterministic) {
  MetricsRegistry registry;
  registry.GetCounter("gsi_b_total", "second family")->Increment(2);
  registry.GetGauge("gsi_a_gauge", "first family")->Set(1.5);
  registry.GetHistogram("gsi_c_ms", "a histogram", {1.0, 10.0})
      ->Observe(3.0);
  registry.RegisterCollector([](MetricsSink& sink) {
    sink.AddCounter("gsi_d_total", "labeled counter", 7.0, "device=\"2\"");
    sink.AddCounter("gsi_d_total", "labeled counter", 9.0, "device=\"0\"");
  });

  const std::string text = registry.ExportPrometheus();
  ExpectValidPrometheus(text);
  // Families in lexicographic order, HELP/TYPE once each.
  const size_t a = text.find("gsi_a_gauge");
  const size_t b = text.find("gsi_b_total");
  const size_t c = text.find("gsi_c_ms");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(c, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_NE(text.find("# TYPE gsi_b_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gsi_c_ms histogram"), std::string::npos);
  // Histogram renders cumulative buckets plus _sum/_count.
  EXPECT_NE(text.find("gsi_c_ms_bucket{le=\"1\"} 0"), std::string::npos);
  EXPECT_NE(text.find("gsi_c_ms_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(text.find("gsi_c_ms_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("gsi_c_ms_count 1"), std::string::npos);
  // Collector samples keep their labels.
  EXPECT_NE(text.find("gsi_d_total{device=\"2\"} 7"), std::string::npos);

  // Deterministic: a second export of unchanged state is byte-identical.
  EXPECT_EQ(text, registry.ExportPrometheus());
}

/// Value of the first sample of `family` in a Prometheus exposition, or -1.
double SampleValue(const std::string& text, const std::string& family) {
  const std::string needle = family + " ";
  const size_t pos = text.find("\n" + needle);
  if (pos == std::string::npos) return -1;
  return std::strtod(text.c_str() + pos + 1 + needle.size(), nullptr);
}

TEST(HaloCacheMetrics, FamiliesAppearInServiceExportWithABudget) {
  Graph data = testing::RandomHubGraph(250, 3, 3, 2, 161, 2, 0.15);
  Graph query = testing::RandomQuery(data, 4, 162);
  ServiceOptions so;
  so.num_workers = 1;
  so.num_devices = 2;
  so.partition_data_graph = true;
  so.halo_budget_bytes = 4096;
  QueryService service(data, GsiOptOptions(), so);
  ASSERT_TRUE(service.init_status().ok());
  for (int i = 0; i < 2; ++i) {
    Result<QueryTicket> t = service.Submit(query, {});
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(service.Wait(*t).ok());
  }

  const std::string text = service.ExportMetrics();
  ExpectValidPrometheus(text);
  // Each family is the ServiceStats sum over the served queries; with a
  // cache, every remote probe is a lookup that missed it.
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.halo_cache_hits, 0u);
  EXPECT_GT(stats.remote_probes, 0u);
  for (const auto& [family, sum] :
       {std::pair<const char*, uint64_t>{"gsi_halo_cache_hits_total",
                                         stats.halo_cache_hits},
        {"gsi_halo_cache_misses_total", stats.remote_probes},
        {"gsi_halo_cache_evictions_total", stats.halo_cache_evictions},
        {"gsi_halo_cache_hit_bytes_total", stats.halo_cache_bytes}}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family), std::string::npos)
        << family;
    EXPECT_EQ(SampleValue(text, family), static_cast<double>(sum)) << family;
  }
}

TEST(HaloCacheMetrics, FamiliesAbsentWithoutABudget) {
  Graph data = testing::RandomGraph(150, 3, 3, 2, 163);
  Graph query = testing::RandomQuery(data, 4, 164);
  ServiceOptions so;
  so.num_workers = 1;
  so.num_devices = 2;
  so.partition_data_graph = true;  // budget stays 0: caching off
  QueryService service(data, GsiOptOptions(), so);
  ASSERT_TRUE(service.init_status().ok());
  Result<QueryTicket> t = service.Submit(query, {});
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(service.Wait(*t).ok());
  const std::string text = service.ExportMetrics();
  EXPECT_EQ(text.find("gsi_halo_cache"), std::string::npos);
  EXPECT_EQ(service.stats().halo_cache_hits, 0u);
}

TEST(MetricsRegistryTest, DebugStringListsEverySample) {
  MetricsRegistry registry;
  registry.GetCounter("gsi_x_total", "x")->Increment();
  registry.GetGauge("gsi_y", "y")->Set(2.0);
  const std::string s = registry.DebugString();
  EXPECT_NE(s.find("gsi_x_total"), std::string::npos);
  EXPECT_NE(s.find("gsi_y"), std::string::npos);
}

}  // namespace
}  // namespace gsi
