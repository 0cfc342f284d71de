#include "service/query_service.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/percentile.h"
#include "util/timer.h"

namespace gsi {

using internal::TicketState;
using Phase = internal::TicketState::Phase;
// Admission-deadline clock: decides *whether* a queued ticket still runs,
// never what an executed query matches — match tables stay bit-identical.
using Clock = std::chrono::steady_clock;  // NOLINT(determinism:nondeterministic-seed)

namespace {

// Simulated backoff before retry k >= 2: min(cap, base * 2^(k-2)) ms.
constexpr double kRetryBackoffBaseMs = 1.0;
constexpr double kRetryBackoffCapMs = 8.0;

// Uniform double-consume status for every observer path (Poll, Wait,
// FetchPage): kNotFound with an actionable message, not an internal error —
// the caller's bug is ordinary and recoverable.
Status AlreadyConsumed(uint64_t id) {
  return Status::NotFound(
      "result of ticket " + std::to_string(id) +
      " was already consumed (results are one-shot: the first Poll/Wait or "
      "FetchPage takes ownership); re-submit the query to compute it again");
}

Status CursorClosed(uint64_t id) {
  return Status::NotFound("cursor of ticket " + std::to_string(id) +
                          " is closed; re-submit the query to stream it "
                          "again");
}

}  // namespace

QueryService::QueryService(const Graph& data, GsiOptions gsi_options,
                           ServiceOptions options)
    : data_(&data),
      options_(std::move(options)),
      gsi_options_(std::move(gsi_options)) {
  init_status_ = ValidateGsiOptions(gsi_options_);
  if (init_status_.ok() && options_.max_queue_depth == 0) {
    // Depth 0 would reject every Submit under kReject and deadlock every
    // Submit under kBlock (the space predicate could never hold).
    init_status_ = Status::InvalidArgument(
        "ServiceOptions.max_queue_depth must be >= 1");
  }
  if (init_status_.ok() && options_.default_max_attempts < 1) {
    init_status_ = Status::InvalidArgument(
        "ServiceOptions.default_max_attempts must be >= 1 (got " +
        std::to_string(options_.default_max_attempts) +
        "); use 1 to fail fast on device faults");
  }
  if (!init_status_.ok()) return;  // Submit reports the error.
  if (options_.enable_filter_cache) {
    FilterCache::Options co;
    co.max_bytes = options_.filter_cache_bytes;
    cache_ = std::make_unique<FilterCache>(co);
  }
  const size_t workers =
      options_.num_workers < 1 ? 1 : static_cast<size_t>(options_.num_workers);
  const size_t num_devices = options_.num_devices > 0
                                 ? static_cast<size_t>(options_.num_devices)
                                 : workers;
  if (options_.partition_data_graph && options_.max_shards_per_query > 1) {
    init_status_ = Status::InvalidArgument(
        "partition_data_graph is incompatible with max_shards_per_query > 1 "
        "(intra-query sharding assumes every device holds a replica)");
    return;
  }
  if (options_.partition_replicas < 1) {
    init_status_ = Status::InvalidArgument(
        "ServiceOptions.partition_replicas must be >= 1 (got " +
        std::to_string(options_.partition_replicas) +
        "); use 1 for unreplicated partitions");
    return;
  }
  if (static_cast<size_t>(options_.partition_replicas) > num_devices) {
    init_status_ = Status::InvalidArgument(
        "ServiceOptions.partition_replicas = " +
        std::to_string(options_.partition_replicas) + " exceeds the " +
        std::to_string(num_devices) +
        "-device pool; every replica of a partition needs its own device — "
        "lower partition_replicas or raise num_devices");
    return;
  }
  if (options_.partition_replicas > 1 && !options_.partition_data_graph) {
    init_status_ = Status::InvalidArgument(
        "ServiceOptions.partition_replicas > 1 only applies to the "
        "partitioned data graph; set partition_data_graph = true (replicated "
        "engine execution already stores a full replica per device)");
    return;
  }
  devices_ = std::make_unique<DevicePool>(num_devices, gsi_options_.device);
  if (options_.partition_data_graph) {
    // Workers have not started, so the pool is idle: take every device (in
    // index order) and build each partition's one share on its replica-0
    // device. The leases drop at scope exit; queries re-acquire what they
    // need per execution.
    Result<std::vector<DevicePool::Lease>> leases_or = devices_->AcquireAll();
    if (!leases_or.ok()) {  // unreachable on a fresh pool, but be explicit
      init_status_ = leases_or.status();
      return;
    }
    std::vector<DevicePool::Lease> leases = std::move(leases_or.value());
    std::vector<gpusim::Device*> devs;
    devs.reserve(leases.size());
    for (DevicePool::Lease& l : leases) devs.push_back(l.get());
    const HashVertexPartitioner default_partitioner;
    const GraphPartitioner& partitioner = options_.partitioner
                                              ? *options_.partitioner
                                              : default_partitioner;
    // The halo budget is a serving-layer knob; lanes size their caches
    // from the GsiOptions the shares are built with.
    GsiOptions go = gsi_options_;
    go.halo_budget_bytes = options_.halo_budget_bytes;
    Result<ReplicatedGraph> rg = ReplicatedGraph::Build(
        devs, data, go, partitioner, /*partitions=*/devs.size(),
        static_cast<size_t>(options_.partition_replicas));
    if (!rg.ok()) {
      init_status_ = rg.status();
      return;
    }
    replicated_ = std::make_unique<ReplicatedGraph>(std::move(rg.value()));
  } else {
    engine_ = std::make_unique<QueryEngine>(data, gsi_options_);
  }
  pool_ = std::make_unique<ThreadPool>(workers);
  for (size_t i = 0; i < workers; ++i) {
    pool_->Submit([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
    // Fail whatever never reached a worker; running queries finish below.
    while (!queue_.empty()) {
      TicketPtr t = std::move(queue_.front());
      queue_.pop_front();
      FinishLocked(t, Status::Cancelled("service shut down before ticket " +
                                        std::to_string(t->id) + " started"));
    }
  }
  work_cv_.NotifyAll();
  space_cv_.NotifyAll();
  pool_.reset();  // drains the worker loops and joins
}

Result<QueryTicket> QueryService::Submit(Graph query,
                                         const SubmitOptions& options) {
  if (!init_status_.ok()) return init_status_;
  TicketPtr ticket;
  {
    MutexLock lock(mu_);
    ++stats_.submitted;
    if (queue_.size() >= options_.max_queue_depth && !stopping_) {
      if (options_.overload == OverloadPolicy::kReject) {
        ++stats_.rejected;
        return Status::ResourceExhausted(
            "admission queue full (max_queue_depth=" +
            std::to_string(options_.max_queue_depth) + "); retry later");
      }
      while (!stopping_ && queue_.size() >= options_.max_queue_depth) {
        space_cv_.Wait(mu_);
      }
    }
    if (stopping_) {
      ++stats_.rejected;
      return Status::Cancelled("service is shutting down");
    }

    ticket = std::make_shared<TicketState>();
    ticket->id = next_id_++;
    ticket->query = std::move(query);
    if (options.trace) {
      ticket->tracer = std::make_shared<obs::Tracer>();
      ticket->submit_ns = service_clock_.NowNanos();
    }
    ticket->max_attempts = options.max_attempts > 0
                               ? options.max_attempts
                               : options_.default_max_attempts;
    const double deadline_ms = options.deadline_ms > 0
                                   ? options.deadline_ms
                                   : options_.default_deadline_ms;
    if (deadline_ms > 0) {
      ticket->has_deadline = true;
      ticket->deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 deadline_ms));
    }
    queue_.push_back(ticket);
    ++stats_.admitted;
  }
  work_cv_.NotifyOne();
  return QueryTicket(std::move(ticket));
}

std::optional<Result<QueryResult>> QueryService::Poll(
    const QueryTicket& ticket) {
  if (!ticket.valid()) {
    return Result<QueryResult>(Status::InvalidArgument("invalid ticket"));
  }
  std::optional<Result<PagedQueryResult>> paged;
  {
    MutexLock lock(mu_);
    TicketState& t = *ticket.state_;
    if (t.phase != Phase::kDone) return std::nullopt;
    if (t.taken) return Result<QueryResult>(AlreadyConsumed(t.id));
    t.taken = true;
    paged = std::move(*t.result);
  }
  if (!paged->ok()) return Result<QueryResult>(paged->status());
  // Materialize outside the lock: every copy is host-mediated (uncharged),
  // so the table and stats stay bit-identical to QueryEngine::Execute.
  gpusim::Device tmp(gsi_options_.device);
  return Result<QueryResult>(ToQueryResult(std::move(paged->value()), tmp));
}

Result<QueryResult> QueryService::Wait(const QueryTicket& ticket) {
  if (!ticket.valid()) return Status::InvalidArgument("invalid ticket");
  std::optional<Result<PagedQueryResult>> paged;
  {
    MutexLock lock(mu_);
    TicketState& t = *ticket.state_;
    while (t.phase != Phase::kDone) done_cv_.Wait(mu_);
    if (t.taken) return AlreadyConsumed(t.id);
    t.taken = true;
    paged = std::move(*t.result);
  }
  if (!paged->ok()) return paged->status();
  gpusim::Device tmp(gsi_options_.device);
  return ToQueryResult(std::move(paged->value()), tmp);
}

Status QueryService::CopyPageChunks(const PagedQueryResult& paged,
                                    size_t row_begin, size_t take,
                                    std::vector<VertexId>& dst) {
  const ResultManifest& manifest = paged.manifest;
  const size_t cols = manifest.cols();
  size_t offset = 0;
  for (const ManifestSegment& seg : manifest.Slice(row_begin, take)) {
    const ResultManifest::Part& part = manifest.part(seg.part);
    // Lease exactly the owning device for this chunk. One lease at a time —
    // FetchPage never holds two, so it cannot deadlock against workers (or
    // other cursors) however the segment owners interleave.
    Result<DevicePool::Lease> lease_or =
        devices_->AcquireDevice(static_cast<size_t>(part.device_ordinal));
    if (!lease_or.ok()) return lease_or.status();
    gpusim::Device& dev = *lease_or.value();
    if (dev.fault_epoch() != part.fault_epoch) {
      // Fail-stop: the owner tripped (and was possibly repaired) after
      // producing this partial — its resident copy did not survive.
      return Status::Unavailable(
          "partial result on device " + std::to_string(part.device_ordinal) +
          " was lost to a device fault; the query must be recomputed");
    }
    manifest.CopyChunk(seg, dst.data() + offset * cols);
    // The page-out is the device->host movement a one-shot materialization
    // never pays per page; charge it (honoring armed fault triggers) on the
    // owner.
    dev.ChargeRemoteTransfer(seg.count * cols * sizeof(VertexId));
    if (!dev.healthy()) {
      return Status::Unavailable(
          "device " + std::to_string(part.device_ordinal) +
          " failed while paging out a result chunk (" + dev.fault_message() +
          ")");
    }
    offset += seg.count;
  }
  return Status::Ok();
}

Result<ResultPage> QueryService::FetchPage(const QueryTicket& ticket,
                                           const PageOptions& options) {
  if (!ticket.valid()) return Status::InvalidArgument("invalid ticket");
  TicketState& t = *ticket.state_;
  std::shared_ptr<obs::Tracer> tracer;
  int max_attempts = 1;
  ResultPage page;
  size_t take = 0;
  size_t total = 0;
  {
    MutexLock lock(mu_);
    while (t.phase != Phase::kDone) done_cv_.Wait(mu_);
    if (t.cursor_closed) return CursorClosed(t.id);
    if (!t.cursor.has_value()) {
      if (t.taken) return AlreadyConsumed(t.id);
      t.taken = true;
      if (!t.result->ok()) return t.result->status();
      TicketState::Cursor cursor;
      cursor.paged = std::move(t.result->value());
      t.cursor.emplace(std::move(cursor));
      ++stats_.cursors_opened;
      stats_.cursor_resident_bytes += t.cursor->paged.manifest.resident_bytes();
    }
    // Serialize on the cursor: its holder pages chunks outside this lock.
    while (t.cursor.has_value() && t.cursor->busy) done_cv_.Wait(mu_);
    if (t.cursor_closed || !t.cursor.has_value()) return CursorClosed(t.id);
    t.cursor->busy = true;
    tracer = t.tracer;
    max_attempts = t.max_attempts;

    const ResultManifest& manifest = t.cursor->paged.manifest;
    total = manifest.rows();
    page.cols = manifest.cols();
    page.column_to_query = t.cursor->paged.column_to_query;
    page.row_begin = t.cursor->next_row;
    page.page_index = t.cursor->pages;
    take = total - page.row_begin;
    if (options.max_rows > 0) take = std::min(take, options.max_rows);
    if (options_.page_budget_bytes > 0 && page.cols > 0) {
      // The host-residency bound: a page holds at most page_budget_bytes
      // of match rows, never rounded below one row.
      const size_t budget_rows = std::max<size_t>(
          1, options_.page_budget_bytes / (page.cols * sizeof(VertexId)));
      take = std::min(take, budget_rows);
    }
  }

  // Materialize the page with the cursor marked busy but the service lock
  // released: chunk copies lease pool devices and may block on them.
  const uint64_t span_start = tracer ? service_clock_.NowNanos() : 0;
  page.rows.resize(take * page.cols);
  Status page_status = Status::Ok();
  for (int attempt = 1;; ++attempt) {
    page_status = CopyPageChunks(t.cursor->paged, page.row_begin, take,
                                 page.rows);
    if (page_status.ok()) break;
    const StatusCode code = page_status.code();
    const bool device_fault =
        code == StatusCode::kUnavailable || code == StatusCode::kAborted;
    if (device_fault) {
      MutexLock lock(mu_);
      ++stats_.device_failures;
    }
    if (!device_fault || attempt >= max_attempts) break;
    // The device-resident partials are gone; recompute the result on
    // healthy hardware. Determinism makes the rebuilt table identical, so
    // the rows already served stay a valid prefix and this page simply
    // retries against the fresh manifest.
    obs::TraceContext trace;
    if (tracer) trace = obs::TraceContext{tracer.get(), -1, obs::kHostDevice};
    Result<PagedQueryResult> rebuilt = RunOne(t.query, 1, trace);
    if (!rebuilt.ok()) {
      page_status = rebuilt.status();
      break;
    }
    GSI_CHECK_MSG(rebuilt->manifest.rows() == total &&
                      rebuilt->manifest.cols() == page.cols,
                  "rebuilt cursor result diverged from the original");
    const bool failover = devices_->stats().quarantined_now > 0;
    {
      MutexLock lock(mu_);
      stats_.cursor_resident_bytes -= t.cursor->paged.manifest.resident_bytes();
      t.cursor->paged = std::move(rebuilt.value());
      stats_.cursor_resident_bytes += t.cursor->paged.manifest.resident_bytes();
      ++t.cursor->rebuilds;
      ++stats_.cursor_rebuilds;
      ++stats_.retries;
      if (failover) ++stats_.failovers;
    }
  }

  if (!page_status.ok()) {
    {
      MutexLock lock(mu_);
      t.cursor->busy = false;
    }
    done_cv_.NotifyAll();
    if (page_status.code() == StatusCode::kAborted) {
      // Internal propagation (a device wait invalidated mid-flight);
      // callers see the retriable availability failure.
      return Status::Unavailable(page_status.message());
    }
    return page_status;
  }

  page.num_rows = take;
  page.done = page.row_begin + take >= total;
  const size_t page_bytes = take * page.cols * sizeof(VertexId);
  uint64_t rebuilds = 0;
  {
    MutexLock lock(mu_);
    t.cursor->next_row = page.row_begin + take;
    ++t.cursor->pages;
    t.cursor->busy = false;
    rebuilds = t.cursor->rebuilds;
    ++stats_.result_pages;
    stats_.result_page_bytes += page_bytes;
    stats_.peak_page_bytes = std::max(stats_.peak_page_bytes, page_bytes);
  }
  done_cv_.NotifyAll();
  if (tracer) {
    const int32_t span =
        tracer->RecordSpan("fetch_page", obs::kHostDevice, span_start,
                           service_clock_.NowNanos(), /*parent=*/-1);
    tracer->AddAttr(span, "page_index", std::to_string(page.page_index));
    tracer->AddAttr(span, "rows", std::to_string(page.num_rows));
    tracer->AddAttr(span, "bytes", std::to_string(page_bytes));
    tracer->AddAttr(span, "rebuilds", std::to_string(rebuilds));
  }
  return page;
}

Status QueryService::CloseCursor(const QueryTicket& ticket) {
  if (!ticket.valid()) return Status::InvalidArgument("invalid ticket");
  TicketState& t = *ticket.state_;
  MutexLock lock(mu_);
  if (t.cursor_closed) return Status::Ok();  // idempotent
  while (t.cursor.has_value() && t.cursor->busy) done_cv_.Wait(mu_);
  t.cursor_closed = true;
  if (t.cursor.has_value()) {
    stats_.cursor_resident_bytes -= t.cursor->paged.manifest.resident_bytes();
    ++stats_.cursors_closed;
    t.cursor.reset();  // drops the device-resident partial tables
  }
  return Status::Ok();
}

bool QueryService::Cancel(const QueryTicket& ticket) {
  if (!ticket.valid()) return false;
  MutexLock lock(mu_);
  if (ticket.state_->phase != Phase::kQueued) return false;
  auto it = std::find(queue_.begin(), queue_.end(), ticket.state_);
  if (it == queue_.end()) return false;  // being picked up right now
  queue_.erase(it);
  FinishLocked(ticket.state_,
               Status::Cancelled("ticket " + std::to_string(ticket.id()) +
                                 " cancelled before execution"));
  space_cv_.NotifyOne();
  return true;
}

void QueryService::Drain() {
  MutexLock lock(mu_);
  while (!queue_.empty() || in_flight_ != 0) done_cv_.Wait(mu_);
}

std::shared_ptr<const obs::Tracer> QueryService::GetTrace(
    const QueryTicket& ticket) const {
  if (!ticket.valid()) return nullptr;
  MutexLock lock(mu_);
  return ticket.state_->tracer;
}

std::string QueryService::ExportMetrics() const {
  return Scrape().ExportPrometheus();
}

std::string QueryService::MetricsDebugString() const {
  return Scrape().DebugString();
}

obs::MetricsSink QueryService::Scrape() const {
  obs::MetricsSink sink;
  if (!init_status_.ok()) return sink;
  const ServiceStats s = stats();
  sink.AddCounter("gsi_service_submitted_total", "Submit calls",
                  static_cast<double>(s.submitted));
  sink.AddCounter("gsi_service_admitted_total", "Tickets admitted",
                  static_cast<double>(s.admitted));
  sink.AddCounter("gsi_service_rejected_total",
                  "Submissions shed by admission control",
                  static_cast<double>(s.rejected));
  sink.AddCounter("gsi_service_cancelled_total",
                  "Tickets cancelled before execution",
                  static_cast<double>(s.cancelled));
  sink.AddCounter("gsi_service_expired_total",
                  "Tickets queued past their deadline",
                  static_cast<double>(s.expired));
  sink.AddCounter("gsi_service_completed_total",
                  "Queries executed to a result",
                  static_cast<double>(s.completed_ok), "status=\"ok\"");
  sink.AddCounter("gsi_service_completed_total",
                  "Queries executed to a result",
                  static_cast<double>(s.failed), "status=\"error\"");
  sink.AddGauge("gsi_service_queue_depth",
                "Admitted tickets waiting for a worker",
                static_cast<double>(s.queue_depth));
  sink.AddGauge("gsi_service_in_flight", "Currently executing queries",
                static_cast<double>(s.in_flight));
  sink.AddCounter("gsi_service_sharded_queries_total",
                  "Completed-ok queries whose join fanned out",
                  static_cast<double>(s.sharded_queries));
  sink.AddCounter("gsi_service_shards_executed_total",
                  "Join shards across sharded queries",
                  static_cast<double>(s.shards_executed));
  sink.AddCounter("gsi_service_partitioned_queries_total",
                  "Completed-ok queries on the partitioned data graph",
                  static_cast<double>(s.partitioned_queries));
  sink.AddCounter("gsi_service_replica_lanes_total",
                  "Distinct devices held, summed over partitioned queries",
                  static_cast<double>(s.replica_lanes_total));
  sink.AddCounter("gsi_service_remote_probes_total",
                  "Cross-partition neighbor probes",
                  static_cast<double>(s.remote_probes));
  sink.AddCounter("gsi_service_co_located_probes_total",
                  "Probes a co-resident replica served locally",
                  static_cast<double>(s.co_located_probes));
  sink.AddCounter("gsi_service_halo_bytes_total",
                  "Interconnect bytes moved (filter gathers + join merges)",
                  static_cast<double>(s.halo_bytes));
  sink.AddCounter("gsi_service_device_failures_total",
                  "Execution attempts that died on a failed device",
                  static_cast<double>(s.device_failures));
  sink.AddCounter("gsi_service_retries_total",
                  "Re-executions after a device-failed attempt",
                  static_cast<double>(s.retries));
  sink.AddCounter("gsi_service_failovers_total",
                  "Retries that had to select around a quarantined device",
                  static_cast<double>(s.failovers));
  sink.AddCounter("gsi_service_unavailable_total",
                  "Queries that exhausted retries and failed kUnavailable",
                  static_cast<double>(s.unavailable_queries));
  sink.AddCounter("gsi_result_pages_total",
                  "Result pages served by FetchPage",
                  static_cast<double>(s.result_pages));
  sink.AddCounter("gsi_result_page_bytes_total",
                  "Match-row bytes across served result pages",
                  static_cast<double>(s.result_page_bytes));
  sink.AddCounter("gsi_cursors_opened_total",
                  "Result cursors opened by a first FetchPage",
                  static_cast<double>(s.cursors_opened));
  sink.AddCounter("gsi_cursor_rebuilds_total",
                  "Cursors recomputed after losing device partials",
                  static_cast<double>(s.cursor_rebuilds));
  sink.AddGauge("gsi_open_cursors",
                "Cursors opened and not yet closed via CloseCursor",
                static_cast<double>(s.cursors_opened - s.cursors_closed));
  sink.AddGauge("gsi_result_resident_bytes",
                "Manifest bytes pinned on pool devices by open cursors",
                static_cast<double>(s.cursor_resident_bytes));
  sink.AddGauge("gsi_service_max_shard_skew",
                "Worst max/mean per-shard time observed",
                s.max_shard_skew);
  sink.AddGauge("gsi_service_max_partition_skew",
                "Worst max/mean per-lane join time observed",
                s.max_partition_skew);
  sink.AddHistogram("gsi_query_simulated_ms",
                    "Simulated end-to-end latency of completed-ok queries "
                    "(ms)",
                    s.simulated_ms_histogram);
  if (cache_) s.cache.AddSamples(sink);
  s.pool.AddSamples(sink);
  // Halo-cache families, only where lanes make caches (absent otherwise,
  // like the filter cache's). With a cache, every remote probe is a
  // lookup that missed it.
  if (!options_.partition_data_graph || options_.halo_budget_bytes == 0) {
    return sink;
  }
  sink.AddCounter("gsi_halo_cache_hits_total",
                  "Remote probes served from a lane's halo cache",
                  static_cast<double>(s.halo_cache_hits));
  sink.AddCounter("gsi_halo_cache_misses_total",
                  "Cacheable remote probes that went to the interconnect",
                  static_cast<double>(s.remote_probes));
  sink.AddCounter("gsi_halo_cache_evictions_total",
                  "Halo-cache entries evicted to stay under budget",
                  static_cast<double>(s.halo_cache_evictions));
  sink.AddCounter("gsi_halo_cache_hit_bytes_total",
                  "Bytes halo-cache hits served without the interconnect",
                  static_cast<double>(s.halo_cache_bytes));
  return sink;
}

ServiceStats QueryService::stats() const {
  ServiceStats out;
  std::vector<double> latencies;
  {
    MutexLock lock(mu_);
    out = stats_;
    out.queue_depth = queue_.size();
    out.in_flight = in_flight_;
    latencies = latencies_ms_;
  }
  // The percentile sort and pool/cache snapshots lock elsewhere — do them
  // outside the critical section.
  std::sort(latencies.begin(), latencies.end());
  out.p50_simulated_ms = PercentileOfSorted(latencies, 0.5);
  out.p99_simulated_ms = PercentileOfSorted(latencies, 0.99);
  if (cache_) out.cache = cache_->stats();
  if (devices_) out.pool = devices_->stats();
  if (out.partitioned_queries > 0) {
    out.avg_replica_lanes = static_cast<double>(out.replica_lanes_total) /
                            static_cast<double>(out.partitioned_queries);
  }
  out.replica_pick_skew = out.pool.replica_pick_skew();
  out.quarantined_devices = out.pool.quarantined_now;
  return out;
}

Status QueryService::InjectDeviceFault(size_t index, gpusim::FaultPlan plan) {
  if (!init_status_.ok()) return init_status_;
  return devices_->InjectFault(index, std::move(plan));
}

bool QueryService::RepairDevice(size_t index) {
  return devices_ != nullptr && devices_->Repair(index);
}

void QueryService::FinishLocked(const TicketPtr& ticket,
                                Result<PagedQueryResult> result) {
  if (result.ok()) {
    ++stats_.completed_ok;
    stats_.sum_simulated_ms += result->stats.total_ms;
    if (result->stats.shards_used > 1) {
      ++stats_.sharded_queries;
      stats_.shards_executed += result->stats.shards_used;
      stats_.max_shard_skew =
          std::max(stats_.max_shard_skew, result->stats.shard_skew);
    }
    if (result->stats.partitions_used > 0) {
      ++stats_.partitioned_queries;
      stats_.remote_probes += result->stats.remote_probes;
      stats_.halo_bytes += result->stats.halo_bytes;
      stats_.halo_cache_hits += result->stats.halo_cache_hits;
      stats_.halo_cache_bytes += result->stats.halo_cache_bytes;
      stats_.halo_cache_evictions += result->stats.halo_cache_evictions;
      stats_.max_partition_skew =
          std::max(stats_.max_partition_skew, result->stats.partition_skew);
      stats_.replica_lanes_total += result->stats.replica_lanes;
      stats_.co_located_probes += result->stats.co_located_probes;
    }
    stats_.simulated_ms_histogram.Observe(result->stats.total_ms);
    if (latencies_ms_.size() < kLatencyWindow) {
      latencies_ms_.push_back(result->stats.total_ms);
    } else {
      latencies_ms_[latency_cursor_] = result->stats.total_ms;
      latency_cursor_ = (latency_cursor_ + 1) % kLatencyWindow;
    }
  } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
    ++stats_.expired;
  } else if (result.status().code() == StatusCode::kCancelled) {
    ++stats_.cancelled;
  } else {
    ++stats_.failed;
    if (result.status().code() == StatusCode::kUnavailable) {
      ++stats_.unavailable_queries;
    }
  }
  ticket->result = std::move(result);
  ticket->phase = Phase::kDone;
  done_cv_.NotifyAll();
}

void QueryService::WorkerLoop() {
  // Devices come from the shared pool per query (RunOne), reused across
  // queries without resets: per-query stats are deltas
  // (RunFilterStage/RunJoinStageShardedPaged), so isolation matches
  // QueryEngine::RunBatch.
  for (;;) {
    TicketPtr ticket;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) work_cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping_ with a drained queue
      ticket = std::move(queue_.front());
      queue_.pop_front();
      space_cv_.NotifyOne();
      if (ticket->has_deadline && Clock::now() > ticket->deadline) {
        FinishLocked(ticket,
                     Status::DeadlineExceeded(
                         "ticket " + std::to_string(ticket->id) +
                         " spent longer than its deadline in the queue"));
        continue;
      }
      ticket->phase = Phase::kRunning;
      ++in_flight_;
    }
    Result<PagedQueryResult> result = [&] {
      if (!ticket->tracer) {
        return RunOne(ticket->query, ticket->max_attempts,
                      obs::TraceContext{});
      }
      // Traced ticket: close the queue-wait span (opened conceptually at
      // admission) and parent the execution under a host-track root. Both
      // use the service steady clock — wall time; the device spans below
      // them use cycle clocks and stay byte-stable.
      obs::Tracer& tracer = *ticket->tracer;
      tracer.RecordSpan("queue_wait", obs::kHostDevice, ticket->submit_ns,
                        service_clock_.NowNanos(), /*parent=*/-1);
      obs::TraceContext root_ctx{&tracer, -1, obs::kHostDevice};
      obs::ScopedSpan root(root_ctx, "query", service_clock_);
      root.AddAttr("ticket", ticket->id);
      return RunOne(ticket->query, ticket->max_attempts, root.context());
    }();
    {
      MutexLock lock(mu_);
      --in_flight_;
      FinishLocked(ticket, std::move(result));
    }
  }
}

Result<FilterResult> QueryService::FilterViaCache(
    const Graph& query, gpusim::Device& materialize_dev, QueryStats& stats,
    const obs::TraceContext& trace,
    const std::function<Result<FilterResult>()>& fresh_filter) {
  if (!cache_) return fresh_filter();
  const std::string key = FilterCache::KeyOf(query);
  if (std::shared_ptr<const FilterCache::Entry> entry = cache_->Lookup(key)) {
    // Hit: skip the scan kernels, re-upload the memoized candidate lists
    // (and bitset kernel) onto `materialize_dev`. The fresh path's stage
    // opens its own "filter" span, so only the hit opens one here.
    const obs::DeviceCycleClock clock(materialize_dev);
    obs::ScopedSpan span(trace, "filter", clock, materialize_dev.ordinal());
    span.AddAttr("cache", "hit");
    const gpusim::MemStats before = materialize_dev.stats();
    FilterResult filtered = FilterCache::Materialize(
        materialize_dev, *entry, data_->num_vertices(),
        gsi_options_.filter.build_bitmaps);
    stats.filter = materialize_dev.stats() - before;
    stats.filter_ms = stats.filter.SimulatedMs(materialize_dev.config());
    stats.min_candidate_size = entry->min_candidate_size;
    span.AddAttr("min_candidate_size",
                 static_cast<uint64_t>(entry->min_candidate_size));
    return filtered;
  }
  Result<FilterResult> fresh = fresh_filter();
  if (fresh.ok()) cache_->Insert(key, FilterCache::MakeEntry(*fresh));
  return fresh;
}

Result<PagedQueryResult> QueryService::RunOne(const Graph& query,
                                              int max_attempts,
                                              const obs::TraceContext& trace) {
  max_attempts = std::max(1, max_attempts);
  double backoff_ms = 0;
  for (int attempt = 1;; ++attempt) {
    Result<PagedQueryResult> out = RunOneAttempt(query, trace);
    if (out.ok()) {
      out->stats.attempts = static_cast<size_t>(attempt);
      out->stats.backoff_ms = backoff_ms;
      out->stats.total_ms += backoff_ms;
      return out;
    }
    const StatusCode code = out.status().code();
    const bool device_fault =
        code == StatusCode::kUnavailable || code == StatusCode::kAborted;
    if (device_fault) {
      MutexLock lock(mu_);
      ++stats_.device_failures;
    }
    if (!device_fault || attempt >= max_attempts) {
      if (code == StatusCode::kAborted) {
        // kAborted is internal propagation (a wait invalidated mid-flight);
        // callers see the retriable availability failure.
        return Status::Unavailable(out.status().message());
      }
      return out;
    }
    // Retry on a fresh acquisition: the poisoned lease already quarantined
    // the failed device, so re-acquiring selects healthy hardware (a
    // failover) — or the same device after an operator Repair.
    const bool failover = devices_->stats().quarantined_now > 0;
    {
      MutexLock lock(mu_);
      ++stats_.retries;
      if (failover) ++stats_.failovers;
    }
    const double step =
        kRetryBackoffBaseMs *
        static_cast<double>(uint64_t{1} << std::min(attempt - 1, 30));
    backoff_ms += std::min(kRetryBackoffCapMs, step);
    if (trace.tracer != nullptr) {
      // Zero-width host markers: the failure is a point event (the attempt
      // span under it already shows the lost work).
      const uint64_t now = service_clock_.NowNanos();
      const int32_t fail_span = trace.tracer->RecordSpan(
          "device_failure", obs::kHostDevice, now, now, trace.parent);
      trace.tracer->AddAttr(fail_span, "status", out.status().message());
      const int32_t retry_span = trace.tracer->RecordSpan(
          "retry", obs::kHostDevice, now, now, trace.parent);
      trace.tracer->AddAttr(retry_span, "attempt",
                            std::to_string(attempt + 1));
      trace.tracer->AddAttr(retry_span, "failover",
                            failover ? "true" : "false");
    }
  }
}

Result<PagedQueryResult> QueryService::RunOneAttempt(
    const Graph& query, const obs::TraceContext& trace) {
  if (replicated_) {
    // Lease one replica of each partition (packed onto as few devices as
    // possible, so other lanes stay free for concurrent queries; at R = 1
    // every group is a single device, so this takes the whole pool), then
    // serve every partition from its leased replica. The primary
    // (gather/merge/materialize device) is the lowest-indexed leased
    // device — the same device RunFilterStageReplicated picks.
    const ReplicatedGraph& rg = *replicated_;
    Result<DevicePool::GroupLeases> leases_or =
        devices_->AcquireOneOfEach(rg.placement().device_of);
    if (!leases_or.ok()) return leases_or.status();
    DevicePool::GroupLeases leases = std::move(leases_or.value());
    Result<ReplicaSelection> sel =
        SelectionFromDevices(rg, leases.device_of_group);
    if (!sel.ok()) return sel.status();
    gpusim::Device& primary = *leases.leases.front().get();

    WallTimer wall;
    QueryStats stats;
    // A hit materializes the memoized (already global) lists on the
    // primary, skipping the lane scans and their gather.
    Result<FilterResult> filtered =
        FilterViaCache(query, primary, stats, trace, [&] {
          return RunFilterStageReplicated(rg, *sel, query, stats,
                                          /*parallel_ms=*/nullptr, trace);
        });
    if (!filtered.ok()) return filtered.status();
    Result<PagedQueryResult> out = RunJoinStageReplicatedPaged(
        rg, *sel, query, std::move(filtered.value()), stats, trace);
    if (out.ok()) out->stats.wall_ms = wall.ElapsedMs();
    return out;
  }
  Result<DevicePool::Lease> primary_or = devices_->Acquire();
  if (!primary_or.ok()) return primary_or.status();
  DevicePool::Lease primary = std::move(primary_or.value());
  gpusim::Device& dev = *primary;

  WallTimer wall;
  QueryStats stats;
  Result<FilterResult> filtered_or =
      FilterViaCache(query, dev, stats, trace, [&] {
        return RunFilterStage(dev, engine_->filter(), query, stats, trace);
      });
  if (!filtered_or.ok()) return filtered_or.status();
  FilterResult filtered = std::move(filtered_or.value());

  // Heavy query + idle devices -> fan the join out. The extra leases are
  // taken without blocking so sharding can never stall a light query, and
  // RAII returns every device when the join finishes (or fails).
  std::vector<DevicePool::Lease> extras;
  std::vector<gpusim::Device*> devs{&dev};
  if (options_.max_shards_per_query > 1 &&
      stats.min_candidate_size >= options_.shard_min_candidates) {
    while (devs.size() <
           static_cast<size_t>(options_.max_shards_per_query)) {
      std::optional<DevicePool::Lease> extra = devices_->TryAcquire();
      if (!extra) break;
      extras.push_back(std::move(*extra));
      devs.push_back(extras.back().get());
    }
  }
  Result<PagedQueryResult> out = RunJoinStageShardedPaged(
      devs, *data_, engine_->store(), gsi_options_, options_.shard, query,
      std::move(filtered), stats, trace);
  if (out.ok()) out->stats.wall_ms = wall.ElapsedMs();
  return out;
}

}  // namespace gsi
