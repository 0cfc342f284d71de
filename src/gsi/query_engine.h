#ifndef GSI_GSI_QUERY_ENGINE_H_
#define GSI_GSI_QUERY_ENGINE_H_

#include <memory>
#include <span>
#include <vector>

#include "gpusim/device.h"
#include "graph/graph.h"
#include "gsi/filter.h"
#include "gsi/matcher.h"
#include "gsi/replication.h"
#include "gsi/sharded_engine.h"
#include "storage/neighbor_store.h"
#include "util/status.h"

namespace gsi {

/// Configuration of one RunBatch call.
struct BatchOptions {
  /// Worker threads; each owns one simulated device. Clamped to
  /// [1, number of queries].
  int num_threads = 1;
};

/// Aggregate measurements of one batch execution.
struct BatchStats {
  size_t total = 0;              ///< queries submitted
  size_t ok = 0;                 ///< queries that produced a result
  size_t failed = 0;             ///< queries rejected (bad query, row cap...)
  size_t num_workers = 0;        ///< worker threads that ran (after clamping)
  double wall_ms = 0;            ///< host wall time of the whole batch
  double queries_per_sec = 0;    ///< total / wall time (failures included)
  double ok_queries_per_sec = 0; ///< ok / wall time (goodput; 0 if all fail)
  double sum_simulated_ms = 0;   ///< sum of per-query simulated device time
  double p50_simulated_ms = 0;   ///< median simulated latency (ok queries)
  double p99_simulated_ms = 0;   ///< 99th-percentile simulated latency
  gpusim::MemStats device;       ///< counters summed over all worker devices
};

/// Result of one RunBatch call; `per_query[i]` corresponds to `queries[i]`.
struct BatchResult {
  std::vector<Result<QueryResult>> per_query;
  BatchStats stats;
};

/// Concurrent batch query engine: builds the data-graph structures (PCSR /
/// signature table) once, then serves many queries over them in parallel.
///
///   QueryEngine engine(data, GsiOptOptions());
///   Result<QueryResult> one = engine.Execute({.query = &query});
///   BatchOptions bo;
///   bo.num_threads = 4;
///   BatchResult batch = engine.RunBatch(queries, bo);
///   batch.stats.queries_per_sec;
///
/// The precomputed structures are immutable after construction and shared
/// by reference across worker threads; every worker owns a private
/// gpusim::Device, so per-query stats are isolated and results are
/// bit-identical to sequential GsiMatcher::Find. The data graph must
/// outlive the engine.
///
/// Thread-safety: Execute/RunBatch are safe to call concurrently from any
/// number of threads (they only read the shared structures) as long as the
/// devices an ExecRequest names belong to exactly one call at a time (lease
/// them from a DevicePool).
///
/// Ownership: every returned QueryResult owns its MatchTable outright —
/// results outlive the engine, the devices that produced them, and each
/// other; nothing in a result aliases engine state. Determinism: for a
/// fixed (data, options, query), the match table and all simulated
/// counters are identical across runs, thread counts and execution
/// strategies (see docs/ARCHITECTURE.md, "Where determinism is
/// enforced").
class QueryEngine {
 public:
  explicit QueryEngine(const Graph& data,
                       GsiOptions options = DefaultGsiOptions());

  /// One query execution request: the query, at most one execution target,
  /// and an optional trace sink (obs/trace.h) that collects the execution's
  /// span tree. Targets:
  ///
  ///   - nothing set: a fresh private device per call (thread-safe), run
  ///     as the `devices` target over that one device.
  ///   - `devices`: intra-query sharding across leased devices
  ///     (sharded_engine.h); `shard` tunes the fan-out.
  ///   - `replicated` + `selection`: a partitioned data graph, each of its
  ///     K partitions on R devices (gsi/replication.h; R = 1 is plain
  ///     partitioning); concurrent calls need disjoint selections.
  ///
  /// Setting both targets, a replicated target without a selection, a
  /// selection without a replicated target, or a null or repeated entry in
  /// `devices` is InvalidArgument, returned before any device is touched. A
  /// replicated target must have been built over this engine's data graph
  /// and GsiOptions (also checked). Every target's result is bit-identical
  /// to GsiMatcher::Find.
  struct ExecRequest {
    const Graph* query = nullptr;
    /// Distinct, non-null devices; devices[0] is the primary, which runs
    /// the filter and every step that does not fan out.
    std::span<gpusim::Device* const> devices = {};
    /// Tuning for the `devices` target; ignored otherwise.
    ShardOptions shard = {};
    const ReplicatedGraph* replicated = nullptr;
    const ReplicaSelection* selection = nullptr;
    obs::TraceContext trace = {};
  };

  /// Runs one query as described by `req` (see ExecRequest for targets,
  /// validation and the bit-identity contract): ExecutePaged plus
  /// ToQueryResult. The returned table is owned outright.
  Result<QueryResult> Execute(const ExecRequest& req) const;

  /// Execute in manifest form: the result's partial tables stay on the
  /// devices that produced them (ResultManifest; see result_manifest.h) —
  /// what QueryService pages FetchPage results out of. Stats are identical
  /// to Execute; materializing the manifest reproduces Execute's table
  /// bit for bit.
  Result<PagedQueryResult> ExecutePaged(const ExecRequest& req) const;

  /// Runs every query, spreading them over options.num_threads workers.
  /// Always returns one entry per query, in input order.
  BatchResult RunBatch(std::span<const Graph> queries,
                       const BatchOptions& options = BatchOptions()) const;

  /// Not Ok when the constructor rejected the options (see
  /// ValidateGsiOptions); Execute and RunBatch report it per query.
  const Status& init_status() const { return init_status_; }

  const GsiOptions& options() const { return options_; }
  /// Valid only when init_status().ok().
  const NeighborStore& store() const { return *store_; }
  /// Precomputed filtering context; valid only when init_status().ok().
  /// Read-only, so callers may run RunFilterStage against it concurrently
  /// as long as each brings its own device (QueryService does).
  const FilterContext& filter() const { return *filter_; }

 private:
  /// Shared validation of Execute/ExecutePaged requests (see ExecRequest).
  Status ValidateRequest(const ExecRequest& req) const;

  const Graph* data_;
  GsiOptions options_;
  Status init_status_;
  /// Device the shared structures were built on; never used for query
  /// execution (workers bring their own), it only holds the build-time
  /// allocations and their address ranges.
  std::unique_ptr<gpusim::Device> build_dev_;
  std::unique_ptr<NeighborStore> store_;
  std::unique_ptr<FilterContext> filter_;
};

}  // namespace gsi

#endif  // GSI_GSI_QUERY_ENGINE_H_
