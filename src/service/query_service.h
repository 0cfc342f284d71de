#ifndef GSI_SERVICE_QUERY_SERVICE_H_
#define GSI_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "gsi/matcher.h"
#include "gsi/query_engine.h"
#include "gsi/replication.h"
#include "gsi/result_manifest.h"
#include "gsi/sharded_engine.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/device_pool.h"
#include "service/filter_cache.h"
#include "util/annotations.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace gsi {

/// What Submit does when the bounded admission queue is full.
enum class OverloadPolicy {
  kReject,  ///< fail fast with ResourceExhausted (shed load)
  kBlock,   ///< block the submitter until a slot frees (backpressure)
};

/// Configuration of a QueryService instance.
struct ServiceOptions {
  /// Long-lived worker threads. Workers lease devices from the shared
  /// DevicePool per query (instead of pinning one each), so per-query stats
  /// stay isolated exactly as in QueryEngine::RunBatch while idle devices
  /// remain available for heavy queries to fan out across.
  int num_workers = 2;
  /// Devices in the shared pool (0 = one per worker). More devices than
  /// workers gives heavy queries headroom to shard; fewer throttles
  /// concurrency to the hardware.
  int num_devices = 0;
  /// Maximum devices one query's join phase may span (1 = intra-query
  /// sharding off). Beyond the first, devices are only taken when idle —
  /// fan-out never makes a light query wait behind a heavy one.
  int max_shards_per_query = 1;
  /// Heaviness gate: only queries whose smallest candidate set reaches this
  /// size lease extra devices (a cheap proxy for the seed list the sharded
  /// join splits across its lanes; a short seed list is not worth a second
  /// device). The join itself decides, from its seed step's volume,
  /// whether to use them (ShardOptions).
  size_t shard_min_candidates = 256;
  /// Fan-out volume floor of the sharded join (see sharded_engine.h).
  ShardOptions shard;
  /// Maximum admitted-but-not-started queries. Running queries do not
  /// count: the queue bounds waiting work, the workers bound running work.
  size_t max_queue_depth = 256;
  OverloadPolicy overload = OverloadPolicy::kReject;
  /// Deadline applied to tickets submitted without one (0 = none). The
  /// deadline bounds queueing delay: a ticket still queued when it expires
  /// fails with DeadlineExceeded; one that started in time runs to
  /// completion.
  double default_deadline_ms = 0;
  /// Share filtering work between queries with identical signatures
  /// (FilterCache). Match results are bit-identical either way.
  bool enable_filter_cache = true;
  size_t filter_cache_bytes = 64ull << 20;

  /// Partition the data graph across the device pool instead of replicating
  /// it: the pool's K devices each hold one partition of the PCSR +
  /// signature table (gsi/replication.h), ~1/K of the replica at
  /// partition_replicas = 1. A query leases one replica of each partition
  /// (DevicePool::AcquireOneOfEach) and runs the partitioned filter/join —
  /// at R = 1 that is the whole pool, so partitioned queries serialize: the
  /// memory-capacity/concurrency trade documented in docs/ARCHITECTURE.md.
  /// Incompatible with max_shards_per_query > 1 (the sharded path assumes
  /// replicas); match results stay bit-identical to GsiMatcher::Find.
  /// Requires PCSR storage and the signature filter strategy.
  bool partition_data_graph = false;
  /// Ownership policy for partition_data_graph (null = HashVertexPartitioner).
  std::shared_ptr<const GraphPartitioner> partitioner;
  /// Replicas of each partition in partition_data_graph mode (R). With the
  /// default 1, every partition lives on one device and a query needs the
  /// whole pool. With R > 1 every partition lives on R pool devices
  /// (staggered placement), a query's lease picks the least-loaded replica
  /// of each and packs onto ~pool/R devices, and up to R partitioned queries
  /// run concurrently — at R times the simulated per-device resident bytes
  /// (host memory does not grow: every replica reads the partition's one
  /// share, built once). R should divide the pool size: a query's lease
  /// packs onto ceil(pool/R) devices, so a non-divisor R buys only
  /// floor(pool / ceil(pool/R)) concurrent lanes (R=3 on a 4-device pool
  /// yields the 2 lanes of R=2 at 3x the memory — its only edge over R=2 is
  /// a few more co-resident replicas absorbing remote probes). A probe of a
  /// partition placed on the probing device is local (co-resident);
  /// others are remote reads through the replica the query leased. Must
  /// be in [1, pool size]; values above 1 need
  /// partition_data_graph. Match results stay bit-identical to
  /// GsiMatcher::Find for every replica choice.
  int partition_replicas = 1;

  /// Execution attempts per query when a simulated device fails mid-run
  /// (kUnavailable/kAborted; see docs/ARCHITECTURE.md, "Fault tolerance").
  /// Each retry re-acquires devices, so with replicas (or spare pool
  /// devices) the rerun lands on healthy hardware and results stay
  /// bit-identical to GsiMatcher::Find. 1 = fail fast. Tickets can raise or
  /// lower this per submission (SubmitOptions::max_attempts). Retry k
  /// (k >= 2) adds a simulated backoff of min(8, 2^(k-2)) ms to the
  /// query's total_ms (QueryStats::backoff_ms) — deterministic, no wall
  /// clock read and no real sleeping.
  int default_max_attempts = 1;

  /// Byte budget of each lane's halo cache over remote N(v, l) lists in
  /// partition_data_graph mode (gsi/halo_cache.h): remote probes of hot
  /// vertices repeat across the join steps and partitions of one query; a
  /// hit is served from the lane's cache at local cost instead of the
  /// interconnect premium. A cache lives for one lane of one query. The
  /// budget is a reserved slice of each device's resident bytes. 0
  /// (default) disables caching; match tables are bit-identical either
  /// way. Ignored unless partition_data_graph is set.
  uint64_t halo_budget_bytes = 0;

  /// Host-resident result-byte budget per query for the cursor protocol
  /// (FetchPage): every served page holds at most this many bytes of match
  /// rows, so a caller streaming pages keeps one page's worth of host
  /// memory per query instead of the whole table. The rest of the result
  /// stays as device-resident partial tables until paged out (see
  /// gsi/result_manifest.h). 0 (default) = unbounded — FetchPage without a
  /// PageOptions row cap then returns the whole remainder in one page.
  /// Never rounds below one row. Poll/Wait opt out of paging entirely
  /// (they materialize the full table; their results are the
  /// compatibility surface).
  size_t page_budget_bytes = 0;
};

/// Per-FetchPage overrides.
struct PageOptions {
  /// Row cap for this page (0 = as many as the service's
  /// page_budget_bytes allows). The effective page size is the smaller of
  /// the two caps, and at least one row when rows remain.
  size_t max_rows = 0;
};

/// One page of a query's match table, streamed out by FetchPage. Pages are
/// contiguous, in order, and concatenating `rows` across pages is
/// byte-identical to the one-shot table Wait returns (and to
/// GsiMatcher::Find) for every execution mode.
struct ResultPage {
  /// Row-major match rows: num_rows x cols VertexIds. Column c binds query
  /// vertex column_to_query[c].
  std::vector<VertexId> rows;
  size_t cols = 0;
  std::vector<VertexId> column_to_query;
  uint64_t page_index = 0;  ///< 0-based fetch order within the cursor
  size_t row_begin = 0;     ///< first row's index in the full table
  size_t num_rows = 0;
  /// True when this page reaches the end of the table (also set on the
  /// empty page a fetch past the end returns).
  bool done = false;
};

/// Per-submission overrides.
struct SubmitOptions {
  /// Queueing deadline for this ticket (0 = ServiceOptions default).
  double deadline_ms = 0;
  /// Collect a per-query trace (obs/trace.h): queue wait plus every
  /// execution phase, retrievable via QueryService::GetTrace once the
  /// ticket finishes. Off by default — untraced queries pay one null check
  /// per would-be span.
  bool trace = false;
  /// Execution attempts for this ticket when a device fails mid-run
  /// (0 = ServiceOptions::default_max_attempts).
  int max_attempts = 0;
};

/// Point-in-time snapshot of service health (stats()).
struct ServiceStats {
  size_t queue_depth = 0;        ///< admitted, waiting for a worker
  size_t in_flight = 0;          ///< currently executing
  uint64_t submitted = 0;        ///< Submit calls (admitted + rejected)
  uint64_t admitted = 0;
  uint64_t rejected = 0;         ///< ResourceExhausted under kReject
  uint64_t cancelled = 0;        ///< Cancel'd before a worker picked them up
  uint64_t expired = 0;          ///< queued past their deadline
  uint64_t completed_ok = 0;
  uint64_t failed = 0;           ///< executed but returned an error
  double sum_simulated_ms = 0;   ///< over all completed-ok queries
  /// Simulated-latency percentiles over a sliding window of the most
  /// recent completed-ok queries (the service is long-lived; an all-time
  /// reservoir would grow without bound).
  double p50_simulated_ms = 0;
  double p99_simulated_ms = 0;
  /// Simulated latency of every completed-ok query since the service
  /// started (the gsi_query_simulated_ms family). The service observes it
  /// and copies it under one mutex with the counters above, so its count()
  /// always equals completed_ok.
  obs::Histogram simulated_ms_histogram{std::vector<double>{
      0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250,
      500, 1000}};
  FilterCache::Stats cache;      ///< zeros when the cache is disabled
  /// Intra-query sharding activity (zeros when max_shards_per_query == 1).
  uint64_t sharded_queries = 0;  ///< completed-ok queries that fanned out
  uint64_t shards_executed = 0;  ///< total shards across those queries
  double max_shard_skew = 0;     ///< worst max/mean per-shard time observed
  /// Partitioned data-graph activity (zeros unless partition_data_graph).
  uint64_t partitioned_queries = 0;  ///< completed-ok partitioned queries
  uint64_t remote_probes = 0;        ///< cross-partition N(v, l) lookups
  uint64_t halo_bytes = 0;           ///< interconnect bytes, filter + join
  double max_partition_skew = 0;     ///< worst max/mean per-lane join time
  /// Remote probes the lanes' halo caches served locally (zeros unless
  /// halo_budget_bytes > 0).
  uint64_t halo_cache_hits = 0;
  uint64_t halo_cache_bytes = 0;      ///< list bytes those hits served
  uint64_t halo_cache_evictions = 0;  ///< entries evicted to stay in budget
  uint64_t replica_lanes_total = 0;   ///< sum of per-query distinct devices
  /// Lane occupancy: replica_lanes_total / partitioned_queries — devices a
  /// partitioned query actually held (the whole pool at R = 1).
  double avg_replica_lanes = 0;
  /// Lookups served by a resident share that is not the partition's
  /// replica 0 instead of the interconnect (the traffic R bought back; zero
  /// at R = 1).
  uint64_t co_located_probes = 0;
  /// max/mean of per-device replica picks (AcquireOneOfEach), 1.0 = even.
  double replica_pick_skew = 0;
  /// Fault-tolerance activity (zeros while no fault is injected).
  uint64_t device_failures = 0;  ///< attempts that died on a failed device
  uint64_t retries = 0;          ///< re-executions after a failed attempt
  /// Retries that ran with at least one device quarantined — the rerun had
  /// to fail over to a different selection, not just repeat.
  uint64_t failovers = 0;
  uint64_t unavailable_queries = 0;  ///< queries that failed kUnavailable
  size_t quarantined_devices = 0;    ///< currently quarantined pool devices
  /// Cursor-protocol activity (zeros until FetchPage is used).
  uint64_t cursors_opened = 0;   ///< tickets whose result went to a cursor
  uint64_t cursors_closed = 0;   ///< CloseCursor calls that freed a cursor
  uint64_t result_pages = 0;     ///< pages served by FetchPage
  uint64_t result_page_bytes = 0;  ///< match-row bytes across those pages
  /// Largest single page served — stays <= page_budget_bytes whenever the
  /// budget is set (the per-query host-residency bound).
  size_t peak_page_bytes = 0;
  /// Cursors whose device-resident partials were lost to a fault and
  /// recomputed mid-stream (the served prefix stayed valid; see
  /// docs/ARCHITECTURE.md, "Result streaming").
  uint64_t cursor_rebuilds = 0;
  /// Manifest bytes currently pinned on pool devices by open cursors.
  size_t cursor_resident_bytes = 0;
  DevicePool::Stats pool;        ///< device-pool health
};

namespace internal {
/// Shared state of one submitted query. All fields are guarded by the
/// owning service's mutex; implementation detail of QueryService.
struct TicketState {
  enum class Phase { kQueued, kRunning, kDone } phase = Phase::kQueued;
  uint64_t id = 0;
  Graph query;
  bool has_deadline = false;
  /// Queueing-deadline expiry: admission policy, not match results.
  // NOLINTNEXTLINE(determinism:nondeterministic-seed)
  std::chrono::steady_clock::time_point deadline{};
  /// Set exactly when phase becomes kDone; moved out by the first
  /// Poll/Wait that observes it or into the cursor by the first FetchPage.
  std::optional<Result<PagedQueryResult>> result;
  bool taken = false;
  /// Open cursor over the consumed result (first FetchPage creates it).
  /// `busy` serializes concurrent FetchPage/CloseCursor calls on one
  /// ticket: the holder pages chunks outside the service lock, so peers
  /// wait on done_cv_ until it commits.
  struct Cursor {
    PagedQueryResult paged;
    size_t next_row = 0;
    uint64_t pages = 0;
    uint64_t rebuilds = 0;
    bool busy = false;
  };
  std::optional<Cursor> cursor;
  /// Set by CloseCursor (even before a cursor opens); FetchPage then
  /// fails kNotFound.
  bool cursor_closed = false;
  /// Present iff SubmitOptions.trace was set; shared so GetTrace stays
  /// valid after the ticket's result is taken.
  std::shared_ptr<obs::Tracer> tracer;
  /// Service steady-clock stamp at admission (queue-wait span start).
  uint64_t submit_ns = 0;
  /// Resolved at Submit (SubmitOptions override or the service default).
  int max_attempts = 1;
};
}  // namespace internal

/// Handle to one submitted query; cheap to copy, futures-style: the result
/// is consumed by the first successful Poll/Wait.
class QueryTicket {
 public:
  QueryTicket() = default;

  bool valid() const { return state_ != nullptr; }
  uint64_t id() const { return state_ ? state_->id : 0; }

 private:
  friend class QueryService;
  explicit QueryTicket(std::shared_ptr<internal::TicketState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::TicketState> state_;
};

/// Long-lived serving layer over QueryEngine: callers stream queries in via
/// Submit and collect results via Poll/Wait instead of handing RunBatch a
/// complete span and blocking until it drains.
///
///   QueryService service(data, GsiOptOptions(), ServiceOptions{});
///   Result<QueryTicket> t = service.Submit(query);     // async
///   if (!t.ok()) { /* queue full under kReject */ }
///   Result<QueryResult> r = service.Wait(*t);          // or Poll
///
/// Result streaming: instead of Wait's one-shot table, FetchPage streams
/// the result in pages of at most ServiceOptions::page_budget_bytes —
/// partial match tables stay resident on the pool devices that produced
/// them (a ResultManifest; gsi/result_manifest.h) and each page leases
/// exactly the devices its chunks live on, charging the page-out as
/// interconnect traffic. Concatenating pages is byte-identical to Wait's
/// table. A ticket's result is one-shot across *both* protocols: the
/// first Poll/Wait or FetchPage consumes it; later observers get
/// kNotFound. CloseCursor releases the device-resident partials early.
///
/// Admission control: the queue holds at most max_queue_depth waiting
/// tickets; beyond that Submit sheds load (kReject -> ResourceExhausted) or
/// applies backpressure (kBlock). Queued tickets can be cancelled and
/// expire via per-query deadlines; running ones always finish.
///
/// Execution reuses the staged core of matcher.h (RunFilterStage +
/// RunJoinStageShardedPaged). Workers lease devices from a shared
/// DevicePool per query; with max_shards_per_query > 1, a heavy query
/// (smallest candidate set >= shard_min_candidates) additionally grabs
/// whatever devices are idle and fans its join out across them
/// (sharded_engine.h). With the filter cache enabled, repeated query shapes
/// skip the signature-scan kernels and rematerialize memoized candidate
/// sets. Both paths keep match tables bit-identical to sequential
/// GsiMatcher::Find — sharding and caching only change where the work runs
/// and what it costs.
///
/// With partition_data_graph set, the pool's devices hold partitions of the
/// data structures (gsi/replication.h), and the service builds no full-graph
/// replica (no QueryEngine): a query leases one replica of each partition
/// (DevicePool::AcquireOneOfEach) and runs the partitioned filter/join —
/// still bit-identical, still cache-compatible (memoized candidate lists
/// are global either way). At partition_replicas = 1 each device holds
/// 1/K of the data and every query takes the whole pool; raising it to
/// R > 1 places every partition on R pool devices, so a query's lease
/// packs onto ~K/R devices, up to R partitioned queries run concurrently,
/// remote probes are served by co-resident replicas when possible, and
/// simulated per-device residency grows to ~R/K of the replica — the
/// replication/concurrency trade the ServiceStats replica counters observe.
///
/// Thread-safe. The data graph must outlive the service. Results handed
/// out by Poll/Wait own their match tables; they stay valid after the
/// service is destroyed. The destructor cancels still-queued tickets, lets
/// running queries finish, and joins the workers.
class QueryService {
 public:
  explicit QueryService(const Graph& data,
                        GsiOptions gsi_options = GsiOptOptions(),
                        ServiceOptions options = ServiceOptions());
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits `query` into the service. Fails with ResourceExhausted when the
  /// queue is full under kReject (blocks under kBlock), or with the
  /// constructor's error when the GsiOptions were invalid.
  Result<QueryTicket> Submit(Graph query,
                             const SubmitOptions& options = SubmitOptions())
      GSI_EXCLUDES(mu_);

  /// Non-blocking: nullopt while queued/running; once finished, moves the
  /// result out (exactly one Poll/Wait/FetchPage consumes it; later calls
  /// fail kNotFound — re-submit to compute the result again).
  std::optional<Result<QueryResult>> Poll(const QueryTicket& ticket)
      GSI_EXCLUDES(mu_);

  /// Blocks until the ticket finishes, then moves the result out. Same
  /// one-shot consume semantics as Poll.
  Result<QueryResult> Wait(const QueryTicket& ticket) GSI_EXCLUDES(mu_);

  /// Streams the ticket's result one page at a time (blocking until the
  /// ticket finishes, like Wait). The first call consumes the result and
  /// opens a cursor over its device-resident partial tables; each call
  /// materializes the next <= min(page_budget_bytes, options.max_rows)
  /// rows by leasing the owning pool devices chunk by chunk
  /// (DevicePool::AcquireDevice) and charging the copy as a device->host
  /// transfer. Pages arrive in table order; the page that reaches the end
  /// has done = true, and further calls return empty done pages.
  /// Concatenating pages is byte-identical to Wait's table for every
  /// execution mode.
  ///
  /// Faults: a chunk whose owning device died (tripped, quarantined, or
  /// repaired since the query ran — its fault epoch changed) fails the
  /// page with kUnavailable; when the ticket allows retries
  /// (max_attempts > 1) the service transparently recomputes the result on
  /// healthy devices and resumes — determinism guarantees the already
  /// served prefix is a prefix of the rebuilt table, so remaining pages
  /// are identical to the no-fault stream.
  ///
  /// Fails kNotFound when the result was already consumed by Poll/Wait or
  /// the cursor was closed; concurrent FetchPage calls on one ticket
  /// serialize.
  Result<ResultPage> FetchPage(const QueryTicket& ticket,
                               const PageOptions& options = PageOptions())
      GSI_EXCLUDES(mu_);

  /// Releases a cursor's device-resident partial tables without draining
  /// it. Idempotent; may be called before any FetchPage (subsequent
  /// fetches then fail kNotFound, but Poll/Wait can still consume an
  /// untouched result). Fails only on an invalid ticket.
  Status CloseCursor(const QueryTicket& ticket) GSI_EXCLUDES(mu_);

  /// Cancels a not-yet-started ticket: true if it was removed from the
  /// queue (its result becomes Cancelled); false if it already started or
  /// finished.
  bool Cancel(const QueryTicket& ticket) GSI_EXCLUDES(mu_);

  /// Blocks until no ticket is queued or running (stream-then-drain usage).
  void Drain() GSI_EXCLUDES(mu_);

  ServiceStats stats() const GSI_EXCLUDES(mu_);

  /// Arms a deterministic fault on pool device `index` (see
  /// gpusim::FaultPlan and DevicePool::InjectFault): the device trips at
  /// the planned point, the running attempt fails with kUnavailable, its
  /// partial results are discarded, and the poisoned lease quarantines the
  /// device on release. Chaos-testing hook; also exercised by
  /// bench_service_throughput --fault-rate.
  Status InjectDeviceFault(size_t index, gpusim::FaultPlan plan);

  /// Repairs a quarantined pool device and re-admits it to serving
  /// (DevicePool::Repair). Returns false when `index` is not quarantined.
  bool RepairDevice(size_t index);

  /// The per-query trace collected for a ticket submitted with
  /// SubmitOptions.trace, or null (not traced / invalid ticket). Safe to
  /// export (ToChromeJson/ToTreeString) once the ticket finished; spans are
  /// still being appended while it runs.
  std::shared_ptr<const obs::Tracer> GetTrace(const QueryTicket& ticket) const
      GSI_EXCLUDES(mu_);

  /// Prometheus text exposition of one stats() snapshot: the service's
  /// admission/completion counters, the simulated-latency histogram, and
  /// the DevicePool and FilterCache families (docs/OBSERVABILITY.md). Every
  /// sample of one call comes from that one snapshot. Empty when
  /// init_status() is not Ok.
  std::string ExportMetrics() const GSI_EXCLUDES(mu_);
  /// Human-readable `name{labels} = value` lines of the same samples.
  std::string MetricsDebugString() const GSI_EXCLUDES(mu_);

  /// Not Ok when the GsiOptions or ServiceOptions were rejected (e.g.
  /// max_queue_depth = 0, which would deadlock kBlock submitters); Submit
  /// reports it per call.
  const Status& init_status() const { return init_status_; }
  const ServiceOptions& options() const { return options_; }

 private:
  using TicketPtr = std::shared_ptr<internal::TicketState>;

  void WorkerLoop() GSI_EXCLUDES(mu_);
  /// The samples of one stats() snapshot, for ExportMetrics and
  /// MetricsDebugString; no samples when init failed.
  obs::MetricsSink Scrape() const GSI_EXCLUDES(mu_);
  /// Executes one query with fault-tolerant retry: runs RunOneAttempt up
  /// to `max_attempts` times, re-acquiring devices per attempt (so reruns
  /// land on healthy hardware after a quarantine) and charging the capped
  /// exponential simulated backoff between attempts. Only device failures
  /// (kUnavailable/kAborted) retry; a final kAborted is reported as
  /// kUnavailable. Records `device_failure`/`retry` spans when traced.
  Result<PagedQueryResult> RunOne(const Graph& query, int max_attempts,
                                  const obs::TraceContext& trace);
  /// One execution attempt: leases a primary device from the pool,
  /// satisfies the filter phase (through the cache when enabled), and —
  /// when the query is heavy and devices are idle — fans the join out
  /// across up to max_shards_per_query devices. In partition_data_graph
  /// mode it instead leases one replica of each partition
  /// (AcquireOneOfEach) and runs the replicated filter/join. `trace` (null
  /// tracer when untraced) parents the execution-phase spans.
  Result<PagedQueryResult> RunOneAttempt(const Graph& query,
                                         const obs::TraceContext& trace);
  /// Satisfies the filter phase through the cache when enabled: a hit
  /// rematerializes the memoized lists on `materialize_dev` (recording the
  /// counter delta and min-candidate metric into `stats`); a miss runs
  /// `fresh_filter` and memoizes its candidate lists. Shared by the
  /// full-replica and partitioned execution paths — the memoized lists
  /// are global either way. Either way `stats.filter_ms` prices the phase
  /// that ran: a hit's materialization on `materialize_dev`, or
  /// `fresh_filter`'s stage.
  Result<FilterResult> FilterViaCache(
      const Graph& query, gpusim::Device& materialize_dev, QueryStats& stats,
      const obs::TraceContext& trace,
      const std::function<Result<FilterResult>()>& fresh_filter);
  void FinishLocked(const TicketPtr& ticket, Result<PagedQueryResult> result)
      GSI_REQUIRES(mu_);
  /// Pages rows [row_begin, row_begin + take) of `paged`'s manifest into
  /// `dst` (presized take * cols), leasing each chunk's owning pool device
  /// and charging the copy as interconnect traffic. Fails kUnavailable
  /// when an owner is gone (quarantined, or its fault epoch changed) or
  /// trips mid-charge. Called with the cursor marked busy, never under
  /// mu_.
  Status CopyPageChunks(const PagedQueryResult& paged, size_t row_begin,
                        size_t take, std::vector<VertexId>& dst)
      GSI_EXCLUDES(mu_);

  /// Completed-ok latencies kept for the percentile snapshot.
  static constexpr size_t kLatencyWindow = 4096;

  const Graph* data_;
  ServiceOptions options_;
  GsiOptions gsi_options_;
  std::unique_ptr<QueryEngine> engine_;  // null in partition_data_graph mode
  Status init_status_;
  /// Host-side trace clock (queue wait, query root span): wall time, not
  /// byte-stable across runs by design — the execution spans under it use
  /// device cycle clocks and are.
  obs::SteadyClockSource service_clock_;
  std::unique_ptr<FilterCache> cache_;  // null when disabled
  std::unique_ptr<DevicePool> devices_;  // null when init failed
  /// The partitioned data graph (partition_data_graph mode): K = pool size
  /// partitions, each on partition_replicas pool devices, built over the
  /// pool's devices in index order. Null otherwise.
  std::unique_ptr<ReplicatedGraph> replicated_;

  mutable Mutex mu_;
  CondVar work_cv_;   // queue non-empty or stopping
  CondVar space_cv_;  // queue below max_queue_depth
  CondVar done_cv_;   // some ticket finished / drained
  /// TicketState fields (phase/result/taken/deadline) are also guarded by
  /// mu_ — tickets are shared with callers, but every access goes through
  /// a service method that holds the lock.
  std::deque<TicketPtr> queue_ GSI_GUARDED_BY(mu_);
  size_t in_flight_ GSI_GUARDED_BY(mu_) = 0;
  uint64_t next_id_ GSI_GUARDED_BY(mu_) = 1;
  bool stopping_ GSI_GUARDED_BY(mu_) = false;
  /// Counters and the latency histogram; depth fields derived in stats().
  ServiceStats stats_ GSI_GUARDED_BY(mu_);
  /// Ring of the last kLatencyWindow completed-ok total_ms values.
  std::vector<double> latencies_ms_ GSI_GUARDED_BY(mu_);
  size_t latency_cursor_ GSI_GUARDED_BY(mu_) = 0;

  /// Declared last so workers die before the state they use.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace gsi

#endif  // GSI_SERVICE_QUERY_SERVICE_H_
