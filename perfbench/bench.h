// Shared declarations of the repository benchmark (see README.md in this
// directory): workload definitions, the client loop's per-query outcomes,
// the output check, and the metric list the final JSON line is built from.

#ifndef GSI_PERFBENCH_BENCH_H_
#define GSI_PERFBENCH_BENCH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "gsi/matcher.h"
#include "obs/trace.h"
#include "util/status.h"

namespace gsi::perfbench {

/// Largest intermediate table (rows) of an admitted benchmark query. Under
/// the default cap (4M rows) a query that overflows fails only after the
/// join has computed the whole oversized step, which at enron x6 costs
/// 11-27 s and 2-5 GB of host memory per query; at this cap the screen
/// rejects such a shape within about half a second.
constexpr size_t kServingRowCap = 65536;

/// Result-size classes of a pass: a shape belongs to the first class whose
/// bound (result rows, inclusive) holds its answer.
constexpr size_t kNumClasses = 4;
constexpr std::array<size_t, kNumClasses> kClassRows = {256, 4096, 16384,
                                                        kServingRowCap};
using ClassMix = std::array<size_t, kNumClasses>;

/// One benchmark workload: the data graph, the service configuration and
/// the shape of the query stream. See README.md for why each exists.
struct Workload {
  std::string name;
  std::string dataset;
  double scale = 1.0;
  int num_devices = 4;
  int max_shards_per_query = 1;
  size_t shard_min_candidates = 256;
  bool partitioned = false;
  int replicas = 1;
  size_t page_budget_bytes = 0;
  size_t filter_cache_bytes = 64ull << 20;
  uint64_t halo_budget_bytes = 0;
  /// Distinct shapes the timed loop cycles through, pass after pass: how
  /// many of each result-size class (kClassRows).
  ClassMix pass_mix{};
  /// Disjoint shapes run through the service before timing.
  ClassMix warmup_mix{};
  /// QueryService constructions per run; setup_s is their median.
  int setup_repeats = 3;
  /// Admitted shapes the traced run replays through the stage calls.
  size_t replay_queries = 8;
};

/// Builds the named workload at full or toy scale; nullptr for an unknown
/// name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, bool toy);

/// GsiOptOptions() with the join's row cap lowered to kServingRowCap: what
/// the screen and the layer replay run with.
GsiOptions ScreenGsiOptions();

/// 128-bit streaming fingerprint of a row-major match table. Feeding the
/// rows page by page gives the same value as feeding the whole table at
/// once, so paged results can be compared with the one-shot reference
/// without keeping either in memory.
class Digest {
 public:
  Digest() = default;
  /// Resumes from a state read back with a() and b().
  Digest(uint64_t a, uint64_t b) : a_(a), b_(b) {}
  void Update(const VertexId* words, size_t n);
  uint64_t a() const { return a_; }
  uint64_t b() const { return b_; }
  bool operator==(const Digest&) const = default;

 private:
  uint64_t a_ = 0xcbf29ce484222325ull;
  uint64_t b_ = 0x9e3779b97f4a7c15ull;
};

/// What a query produced, as the output check sees it.
struct ResultSummary {
  StatusCode code = StatusCode::kOk;
  size_t rows = 0;
  size_t cols = 0;
  std::vector<VertexId> column_to_query;
  Digest digest;
  bool operator==(const ResultSummary&) const = default;
};

/// One query of a client loop.
struct Outcome {
  size_t query = 0;  ///< index into the run's query list
  double latency_ms = 0;
  ResultSummary result;
  /// Pages arrived out of order (row_begin / page_index gaps).
  bool out_of_order = false;
  size_t pages = 0;
  /// Benchmark-side timings (traced run only).
  double submit_us = 0;
  std::vector<double> later_fetch_us;  ///< every FetchPage after the first
  std::shared_ptr<const obs::Tracer> service_trace;
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  ///< percentiles only: values they were taken over
};

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double Percentile(std::vector<double>& values, double p);

/// Host steady-clock milliseconds since an arbitrary epoch.
double NowMs();

}  // namespace gsi::perfbench

#endif  // GSI_PERFBENCH_BENCH_H_
