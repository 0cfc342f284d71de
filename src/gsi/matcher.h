#ifndef GSI_GSI_MATCHER_H_
#define GSI_GSI_MATCHER_H_

#include <memory>
#include <optional>
#include <vector>

#include "gpusim/device.h"
#include "graph/graph.h"
#include "gsi/filter.h"
#include "gsi/join.h"
#include "gsi/match_table.h"
#include "gsi/plan.h"
#include "obs/trace.h"
#include "storage/neighbor_store.h"
#include "util/status.h"

namespace gsi {

/// Top-level configuration of a GSI matcher.
struct GsiOptions {
  FilterOptions filter;
  JoinOptions join;
  gpusim::DeviceConfig device;
  /// Byte budget of the halo cache over remote N(v, l) lists
  /// (gsi/halo_cache.h). 0 disables caching; otherwise each lane of a
  /// partitioned query (gsi/replication.h) makes one cache of this size,
  /// and the partitioned build counts it against every device's resident
  /// memory. Never affects match tables — only when interconnect
  /// transactions are charged.
  uint64_t halo_budget_bytes = 0;

  friend bool operator==(const GsiOptions&, const GsiOptions&) = default;
};

/// Returns the paper's two configurations: GSI (no optimizations) and
/// GSI-opt (load balance + duplicate removal), Section VII.
GsiOptions DefaultGsiOptions();
GsiOptions GsiOptOptions();
/// GSI-: traditional CSR, two-step output, naive set operations (the
/// baseline column of Table VI).
GsiOptions GsiMinusOptions();

/// Validates user-supplied tuning values before they reach code that treats
/// violations as programming errors (PlanChunks aborts on W1/W3 misuse,
/// PCSR build aborts on a bad group size). Checked up front by GsiMatcher
/// and QueryEngine so bad configurations surface as InvalidArgument.
Status ValidateGsiOptions(const GsiOptions& options);

/// Per-query measurements (all "time" values are simulated device time; see
/// gpusim::DeviceConfig for the cost model).
struct QueryStats {
  gpusim::MemStats filter;  ///< counters of the filtering phase
  gpusim::MemStats join;    ///< counters of the joining phase
  /// Written by the filter stage and kept by every join stage, which adds
  /// join_ms (total_ms = filter_ms + join_ms, + backoff_ms on retries).
  /// RunFilterStage prices `filter` on its device; RunFilterStageReplicated
  /// takes the slowest lane's scan plus the primary's gather; a
  /// QueryService cache hit prices its materialization on its device.
  double filter_ms = 0;
  double join_ms = 0;
  double total_ms = 0;
  double wall_ms = 0;       ///< host wall time of the simulation
  size_t num_matches = 0;
  size_t min_candidate_size = 0;
  JoinStats join_detail;

  // --- Multi-device execution (sharded_engine.h); single-device runs keep
  // the defaults. When shards_used > 1, `join` sums the counters of every
  // device, while join_ms is the parallel makespan (serial segments plus
  // the modeled schedule of distributed work).
  size_t shards_used = 1;   ///< devices the join phase actually ran on
  double shard_skew = 0;    ///< max / mean per-device distributed-join time

  // --- Partitioned data-graph execution (gsi/replication.h); zeros on the
  // full-replica paths. Counters sum every lane's device; join_ms is the
  // parallel makespan (slowest lane plus the merge).
  size_t partitions_used = 0;  ///< partitions that own a seed
  uint64_t remote_probes = 0;  ///< N(v, l) lookups served by a peer device
  uint64_t halo_bytes = 0;     ///< bytes that crossed the interconnect
  /// max / mean join time over the lanes that have seeds (1.0 = even).
  double partition_skew = 0;
  /// Remote probes answered from the lanes' halo caches instead of the
  /// interconnect (gsi/halo_cache.h); zeros when halo_budget_bytes == 0.
  uint64_t halo_cache_hits = 0;
  uint64_t halo_cache_bytes = 0;      ///< bytes those hits served locally
  uint64_t halo_cache_evictions = 0;  ///< entries evicted to stay in budget

  // --- Replica lanes of partitioned execution; zeros elsewhere. A
  // partitioned query maps its K partitions onto the devices of one replica
  // selection (with R > 1 several partitions may share a device), so
  // `replica_lanes` < partitions_used means the query left devices idle for
  // concurrent queries — the R-lane effect.
  size_t replica_lanes = 0;         ///< distinct devices the selection used
  /// Lookups served by a share on the lane's device that is not the
  /// partition's replica 0 — exactly the reads that R = 1 would send across
  /// the interconnect, so zero at R = 1 (not counted in remote_probes).
  uint64_t co_located_probes = 0;

  // --- Fault tolerance (service retry layer; see service/query_service.h).
  // Single-attempt paths keep the defaults.
  size_t attempts = 1;    ///< execution attempts (1 = succeeded first try)
  /// Simulated retry backoff (already included in total_ms): capped
  /// exponential, a deterministic model of the wait a real client would
  /// insert between attempts — no wall clock is read.
  double backoff_ms = 0;
};

/// Result of one subgraph-isomorphism query.
struct QueryResult {
  /// Final match table; column j binds query vertex `column_to_query[j]`.
  MatchTable table;
  std::vector<VertexId> column_to_query;
  QueryStats stats;

  size_t num_matches() const { return table.rows(); }

  /// Match r as a vector indexed by query vertex id.
  std::vector<VertexId> MatchInQueryOrder(size_t r) const;
  /// Bit-identical comparison: same dimensions, same column mapping, same
  /// value in every cell (NOT just the same match set) — the guarantee the
  /// sharded engine makes against single-device execution.
  bool TableEquals(const QueryResult& other) const;
  /// All matches, each indexed by query vertex id, sorted lexicographically
  /// (canonical form for comparisons across engines).
  std::vector<std::vector<VertexId>> AllMatchesSorted() const;
};

/// The query checks every filter stage runs first: the query must be
/// non-empty and connected. InvalidArgument otherwise.
Status ValidateQuery(const Graph& query);

/// Stage 1 of query execution: validates `query` (ValidateQuery) and runs
/// the filtering phase on `dev`, recording the phase's device counters,
/// their price (filter_ms) and the min-candidate metric into `stats`.
/// Exposed separately so a serving layer can satisfy this stage from a
/// cache of candidate sets and still run the join stage
/// (RunJoinStageShardedPaged in sharded_engine.h; QueryService does exactly
/// that).
///
/// `trace` (here and on every execution function) is the optional
/// span-tree collector (obs/trace.h): default-constructed means tracing is
/// off and costs one null check per phase. Execution-path spans are timed
/// by the device's cycle clock and sit on the track of the device's
/// ordinal(), so traced runs stay deterministic.
Result<FilterResult> RunFilterStage(gpusim::Device& dev,
                                    const FilterContext& filter,
                                    const Graph& query, QueryStats& stats,
                                    const obs::TraceContext& trace = {});

namespace internal {

/// Every join stage's shortcut: a one-vertex query's candidate set is its
/// answer, and a query with an empty candidate set has no match. Returns
/// that table (on `dev`) with `stats` and join_ms = 0, or nullopt when the
/// query needs the join engine. The caller health-checks `dev`.
std::optional<QueryResult> JoinWithoutEngine(gpusim::Device& dev,
                                             const Graph& data,
                                             const Graph& query,
                                             const FilterResult& filtered,
                                             const QueryStats& stats);

}  // namespace internal

/// GSI: GPU-friendly subgraph isomorphism (the paper's system).
///
///   Graph data = ...;
///   GsiMatcher matcher(data);            // builds PCSR + signature table
///   auto result = matcher.Find(query);   // filtering + joining phases
///   result->num_matches();
///
/// The data graph must outlive the matcher. One matcher owns one simulated
/// device and runs every query on it as ExecuteQueryShardedPaged over that
/// one device (sharded_engine.h), the same flow every full-replica path
/// runs; stats accumulate across queries (use Find's per-query stats for
/// individual measurements). For concurrent multi-query execution over one
/// data graph use QueryEngine (query_engine.h).
class GsiMatcher {
 public:
  explicit GsiMatcher(const Graph& data,
                      GsiOptions options = DefaultGsiOptions());

  /// Enumerates all matches of `query` (connected, >= 1 vertex). Returns
  /// InvalidArgument without running if the matcher was constructed with
  /// invalid tuning options (see ValidateGsiOptions). The overload with a
  /// trace context records the query's span tree into it.
  Result<QueryResult> Find(const Graph& query);
  Result<QueryResult> Find(const Graph& query,
                           const obs::TraceContext& trace);

  /// Not Ok when the constructor rejected the options; Find reports it too.
  const Status& init_status() const { return init_status_; }

  gpusim::Device& device() { return *dev_; }
  /// Valid only when init_status().ok() (no structures are built for
  /// rejected options).
  const NeighborStore& store() const { return *store_; }
  const GsiOptions& options() const { return options_; }

 private:
  const Graph* data_;
  GsiOptions options_;
  Status init_status_;
  std::unique_ptr<gpusim::Device> dev_;
  std::unique_ptr<NeighborStore> store_;
  std::unique_ptr<FilterContext> filter_;
};

/// Builds the NeighborStore variant selected by `kind` (shared by GSI and
/// the GPU baselines).
std::unique_ptr<NeighborStore> BuildStore(gpusim::Device& dev,
                                          const Graph& g, StorageKind kind,
                                          int gpn);

}  // namespace gsi

#endif  // GSI_GSI_MATCHER_H_
