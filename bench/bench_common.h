#ifndef GSI_BENCH_BENCH_COMMON_H_
#define GSI_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/datasets.h"
#include "graph/graph.h"
#include "graph/query_generator.h"
#include "gsi/matcher.h"
#include "gsi/query_engine.h"
#include "obs/trace.h"
#include "util/table_printer.h"

namespace gsi::bench {

/// Environment-controlled knobs so benches scale to the machine:
///   GSI_BENCH_SCALE    dataset scale factor (default 6.0)
///   GSI_BENCH_QUERIES  queries per measurement (default 5; paper: 100)
///   GSI_BENCH_QSIZE    |V(Q)| (default 8; the paper's 12 at its 1000x
///                      larger scale lands in the same selectivity regime)
///   GSI_BENCH_THREADS  QueryEngine workers for GSI runs (default:
///                      min(4, hardware concurrency))
struct BenchEnv {
  double scale = 6.0;
  size_t queries = 5;
  size_t query_vertices = 8;
  size_t threads = 1;
};
const BenchEnv& Env();

/// Cached named dataset at Env().scale.
const Dataset& GetDataset(const std::string& name);

/// Cached deterministic query workload for a dataset (random-walk queries,
/// Section VII-A). `num_edges`=0 keeps walked edges only.
const std::vector<Graph>& GetQueries(const std::string& dataset_name,
                                     size_t num_vertices, size_t num_edges,
                                     size_t count);

/// Sum/average measurements over a query set for one engine run.
struct Aggregate {
  double sum_ms = 0;           // simulated device time
  double sum_filter_ms = 0;
  double sum_join_ms = 0;
  uint64_t gld = 0;            // join-phase global load transactions
  uint64_t gst = 0;            // join-phase global store transactions
  uint64_t filter_gld = 0;
  size_t matches = 0;
  size_t min_candidate_sum = 0;
  size_t ok = 0;
  size_t failed = 0;           // ResourceExhausted etc. (skipped)

  double AvgMs() const { return ok ? sum_ms / static_cast<double>(ok) : 0; }
  double AvgFilterMs() const {
    return ok ? sum_filter_ms / static_cast<double>(ok) : 0;
  }
  double AvgMinCandidate() const {
    return ok ? static_cast<double>(min_candidate_sum) /
                    static_cast<double>(ok)
              : 0;
  }
};

/// Folds one successful query into an Aggregate (shared by the sequential
/// and batch runners so the two cannot drift).
inline void AccumulateResult(Aggregate& agg, const QueryResult& r) {
  ++agg.ok;
  agg.sum_ms += r.stats.total_ms;
  agg.sum_filter_ms += r.stats.filter_ms;
  agg.sum_join_ms += r.stats.join_ms;
  agg.gld += r.stats.join.gld;
  agg.gst += r.stats.join.gst;
  agg.filter_gld += r.stats.filter.gld;
  agg.matches += r.num_matches();
  agg.min_candidate_sum += r.stats.min_candidate_size;
}

/// Runs `matcher.Find` over all queries; any engine with the QueryResult
/// interface (GsiMatcher, EdgeJoinMatcher) works.
template <typename Matcher>
Aggregate RunQueries(Matcher& matcher, const std::vector<Graph>& queries) {
  Aggregate agg;
  for (const Graph& q : queries) {
    Result<QueryResult> r = matcher.Find(q);
    if (!r.ok()) {
      ++agg.failed;
      continue;
    }
    AccumulateResult(agg, r.value());
  }
  return agg;
}

/// Folds a concurrent batch execution into the same Aggregate shape as the
/// sequential RunQueries loop (per-query simulated costs are identical; the
/// batch only changes host wall time).
Aggregate AggregateBatch(const BatchResult& batch);

/// Convenience: build a GsiMatcher over a dataset and run the workload.
Aggregate RunGsi(const std::string& dataset_name, const GsiOptions& options,
                 const std::vector<Graph>& queries);

/// Batch-engine run over a graph with Env().threads workers.
Aggregate RunGsiBatch(const Graph& g, const GsiOptions& options,
                      const std::vector<Graph>& queries);

/// Whitespace-separated positive counts from environment variable `name`
/// (e.g. GSI_BENCH_PARTITIONS="1 2 4 8"); the counts in `def` when it is
/// unset or holds none.
std::vector<size_t> EnvCounts(const char* name, const char* def);

/// The GSI-opt QueryEngine over the enron dataset that the multi-device
/// benches (sharding, partitioning) run against.
const QueryEngine& EnronEngine();

/// The heaviest of the generated enron queries (max single-device
/// simulated time on EnronEngine()): multi-device costs and gains show
/// clearest where the join does real work.
const Graph& HeavyQuery();

/// One machine-readable measurement record. Benches push these via
/// RecordJson; when the binary is invoked with `--json <path>` (or
/// `--json=<path>`), BenchMain writes the collected records to that file as
/// a JSON array of {bench, config, qps, p50, p99, ...extras} objects so
/// cross-PR BENCH_*.json trajectories can accumulate. The schema is
/// documented in docs/BENCHMARKS.md.
struct JsonRecord {
  std::string bench;   ///< benchmark identity, e.g. "sharding_scalability"
  std::string config;  ///< swept configuration, e.g. "devices=4"
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  /// Bench-specific numeric fields appended verbatim to the JSON object
  /// (e.g. bench_partition_scalability's resident_mb_per_device /
  /// halo_mb). Keys must be unique and distinct from the fixed fields.
  std::vector<std::pair<std::string, double>> extras;
};

/// Queues a record for the JSON report. Safe to call whether or not --json
/// was given (records are simply dropped at exit without it).
void RecordJson(JsonRecord record);

/// True when the binary was invoked with `--trace-out <path>` (or
/// `--trace-out=<path>`) and no trace has been captured yet. Guards trace
/// setup work in benches; without the flag it is always false.
bool TraceWanted();

/// Captures one query's span tree: when TraceWanted(), runs `fn` with a
/// live TraceContext rooted at a fresh Tracer and writes the Chrome
/// trace_event JSON to the --trace-out path. First capture wins — later
/// calls return without running `fn` — so each bench's first configuration
/// produces the trace and the measured iterations stay untouched. `label`
/// names the capture in the log line.
void MaybeTraceQuery(const std::string& label,
                     const std::function<void(const obs::TraceContext&)>& fn);

/// Variant for engines that own their tracer (QueryService with
/// SubmitOptions::trace): `fn` runs the query and returns the finished
/// tracer (nullptr to skip). Same first-capture-wins rule.
void MaybeTraceQuery(
    const std::string& label,
    const std::function<std::shared_ptr<const obs::Tracer>()>& fn);

/// Collects rows during google-benchmark execution and prints the
/// paper-style table afterwards. One collector per bench binary.
class TableCollector {
 public:
  TableCollector(std::string title, std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);
  void PrintAndClear();

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Standard main body: strip the `--json <path>` flag, initialize gbench,
/// run, print collected tables, write queued JsonRecords to the path.
int BenchMain(int argc, char** argv,
              const std::vector<TableCollector*>& tables);

}  // namespace gsi::bench

#endif  // GSI_BENCH_BENCH_COMMON_H_
