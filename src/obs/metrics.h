#ifndef GSI_OBS_METRICS_H_
#define GSI_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gsi::obs {

/// Metrics exposition (docs/OBSERVABILITY.md). There is one path: a scrape
/// takes one stats snapshot (QueryService::stats(), which carries
/// DevicePool::Stats and FilterCache::Stats), adds its samples to a
/// MetricsSink, and renders the sink as Prometheus text exposition or a
/// human DebugString. No state here is shared between threads: a sink
/// lives for one scrape, and a Histogram is guarded by its owner.

/// Fixed-bucket histogram with Prometheus `le` semantics: observation v
/// lands in the first bucket whose upper bound satisfies v <= bound, or in
/// the implicit +Inf bucket past the last bound. A plain value: its owner
/// guards it, and a copy is a snapshot.
class Histogram {
 public:
  /// `bounds` are ascending upper bounds (deduplicated, NaNs dropped).
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts: bounds().size() + 1 entries, the +Inf bucket last.
  const std::vector<uint64_t>& counts() const { return counts_; }
  uint64_t count() const { return count_; }
  double sum() const { return sum_; }

  /// Bucket index for `v` under `bounds` (exposed for tests/metrics_test.cc;
  /// returns bounds.size() for the +Inf bucket, NaN lands there too).
  static size_t BucketFor(std::span<const double> bounds, double v);

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0;
};

/// The samples of one scrape. `labels` is the Prometheus label body without
/// braces (e.g. `device="2"`), empty for none; samples of one family must
/// agree on type. Families render in lexicographic order, the samples of a
/// family in the order they were added.
class MetricsSink {
 public:
  void AddCounter(std::string_view name, std::string_view help, double value,
                  std::string_view labels = "");
  void AddGauge(std::string_view name, std::string_view help, double value,
                std::string_view labels = "");
  void AddHistogram(std::string_view name, std::string_view help,
                    const Histogram& histogram, std::string_view labels = "");

  /// Prometheus text exposition (text/plain; version=0.0.4): families in
  /// lexicographic order, `# HELP`/`# TYPE` once per family, histogram as
  /// cumulative `_bucket{le=...}` plus `_sum`/`_count`.
  std::string ExportPrometheus() const;

  /// One `name{labels} = value` line per sample — the debugging snapshot.
  std::string DebugString() const;

  enum class Type { kCounter, kGauge, kHistogram };

 private:
  struct Sample {
    std::string labels;
    double value = 0;
    std::optional<Histogram> histogram;  // kHistogram only
  };
  struct Family {
    std::string help;
    Type type = Type::kGauge;
    std::vector<Sample> samples;
  };

  void Add(std::string_view name, std::string_view help, Type type,
           Sample sample);

  /// Keyed by family name — export order is lexicographic, deterministic.
  std::map<std::string, Family, std::less<>> families_;
};

}  // namespace gsi::obs

#endif  // GSI_OBS_METRICS_H_
