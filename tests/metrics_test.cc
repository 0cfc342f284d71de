// obs metrics: histogram `le` bucket math, and the two renderers of a
// MetricsSink — the Prometheus text exposition (validated line-by-line
// against the exposition grammar) and the DebugString snapshot — plus the
// halo-cache families of a service export. The MetricsRegistryTest cases
// keep the suite name they had when a registry fed the renderers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "gsi/matcher.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "test_util.h"

namespace gsi {
namespace {

using obs::Histogram;
using obs::MetricsSink;

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
  ASSERT_EQ(h.bounds().size(), 2u);
  ASSERT_EQ(h.counts().size(), 3u);  // two bounds + the +Inf bucket
  EXPECT_EQ(h.counts()[0], 2u);      // 0.5 and 1.0 (le semantics)
  EXPECT_EQ(h.counts()[1], 1u);      // 5.0
  EXPECT_EQ(h.counts()[2], 1u);      // 100.0
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.5);
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
  MetricsSink sink;
  sink.AddCounter("gsi_b_total", "second family", 2);
  sink.AddGauge("gsi_a_gauge", "first family", 1.5);
  Histogram latency({1.0, 10.0});
  latency.Observe(3.0);
  sink.AddHistogram("gsi_c_ms", "a histogram", latency);
  sink.AddCounter("gsi_d_total", "labeled counter", 7.0, "device=\"2\"");
  sink.AddCounter("gsi_d_total", "labeled counter", 9.0, "device=\"0\"");

  const std::string text = sink.ExportPrometheus();
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
  // Labeled samples keep their labels.
  EXPECT_NE(text.find("gsi_d_total{device=\"2\"} 7"), std::string::npos);

  // Deterministic: a second export of unchanged state is byte-identical.
  EXPECT_EQ(text, sink.ExportPrometheus());
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
  MetricsSink sink;
  sink.AddCounter("gsi_x_total", "x", 1);
  sink.AddGauge("gsi_y", "y", 2.0);
  const std::string s = sink.DebugString();
  EXPECT_NE(s.find("gsi_x_total"), std::string::npos);
  EXPECT_NE(s.find("gsi_y"), std::string::npos);
}

}  // namespace
}  // namespace gsi
