#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>

#include "gsi/matcher.h"
#include "gsi/partition.h"
#include "gsi/replication.h"
#include "gsi/sharded_engine.h"
#include "service/filter_cache.h"

namespace gsi::perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t Transactions(const gpusim::MemStats& s) {
  return s.gld + s.gst + s.remote_transactions;
}

/// Host and simulated cost of each stage call, summed over the replayed
/// queries.
struct Replay {
  size_t queries = 0;
  double store_build_ms = 0;
  double signature_build_ms = 0;
  double replica_build_ms = 0;
  double resident_mb_per_device = 0;
  double filter_host_ms = 0;
  double filter_sim_ms = 0;
  uint64_t filter_gld = 0;
  uint64_t filter_kernels = 0;
  uint64_t filter_txn = 0;
  double hit_host_us = 0;
  std::vector<double> min_candidates;
  double join_host_ms = 0;
  double join_failed_host_ms = 0;
  double join_sim_ms = 0;
  uint64_t join_gld = 0;
  uint64_t join_gst = 0;
  uint64_t join_txn = 0;
  size_t peak_rows = 0;
  uint64_t dup_hits = 0;
  uint64_t dup_lookups = 0;
  double sharded_host_ms = 0;
  double replicated_host_ms = 0;
};

/// `n` indices of the pass spread over its result sizes: the smallest
/// answer, the largest, and evenly spaced ranks between.
std::vector<size_t> SizeSpread(const std::vector<ResultSummary>& reference,
                               size_t n) {
  std::vector<size_t> order(reference.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return reference[a].rows < reference[b].rows;
  });
  if (n >= order.size() || n < 2) {
    order.resize(std::min(n, order.size()));
    return order;
  }
  std::vector<size_t> pick;
  for (size_t k = 0; k < n; ++k) {
    pick.push_back(order[k * (order.size() - 1) / (n - 1)]);
  }
  return pick;
}

/// Re-runs replay_queries shapes of the pass, spread over its result
/// sizes, through the public stage calls the service composes, timing each
/// call on the host, then times the join of the screen's rejected shapes
/// (their failure path at the screen's row cap).
Replay RunReplay(const Workload& w, const Graph& data,
                 const std::vector<Graph>& stream,
                 const std::vector<ResultSummary>& reference,
                 const std::vector<Graph>& rejected) {
  Replay r;
  GsiOptions go = ScreenGsiOptions();
  if (w.partitioned) go.halo_budget_bytes = w.halo_budget_bytes;
  gpusim::Device build_dev(go.device);
  gpusim::Device dev_a(go.device);
  gpusim::Device dev_b(go.device);

  double t0 = NowMs();
  std::unique_ptr<NeighborStore> store =
      BuildStore(build_dev, data, go.join.storage, go.join.gpn);
  r.store_build_ms = NowMs() - t0;
  t0 = NowMs();
  const FilterContext filter(build_dev, data, go.filter);
  r.signature_build_ms = NowMs() - t0;

  std::vector<std::unique_ptr<gpusim::Device>> lane_devs;
  std::vector<gpusim::Device*> lane_ptrs;
  std::optional<ReplicatedGraph> rg;
  ReplicaSelection sel;
  gpusim::Device* primary = &dev_a;
  if (w.partitioned) {
    for (int d = 0; d < w.num_devices; ++d) {
      lane_devs.push_back(std::make_unique<gpusim::Device>(go.device));
      lane_devs.back()->set_ordinal(d);
      lane_ptrs.push_back(lane_devs.back().get());
    }
    t0 = NowMs();
    Result<ReplicatedGraph> built = ReplicatedGraph::Build(
        lane_ptrs, data, go, HashVertexPartitioner(),
        static_cast<size_t>(w.num_devices), static_cast<size_t>(w.replicas));
    r.replica_build_ms = NowMs() - t0;
    if (built.ok()) {
      rg.emplace(std::move(built.value()));
      sel = CompactSelection(*rg);
      size_t lowest = rg->num_devices();
      for (PartitionId p = 0; p < rg->num_partitions(); ++p) {
        lowest = std::min(lowest, sel.DeviceOf(rg->placement(), p));
      }
      primary = &rg->device(lowest);
      const std::vector<uint64_t>& res = rg->build_stats().resident_bytes;
      double sum = 0;
      for (uint64_t b : res) sum += static_cast<double>(b);
      r.resident_mb_per_device =
          res.empty() ? 0 : sum / static_cast<double>(res.size()) / kMiB;
    }
  }

  gpusim::Device* one_dev[] = {&dev_a};
  gpusim::Device* two_devs[] = {&dev_a, &dev_b};
  for (size_t i : SizeSpread(reference, w.replay_queries)) {
    const Graph& q = stream[i];
    QueryStats stats;
    double parallel_ms = 0;
    t0 = NowMs();
    Result<FilterResult> fresh =
        rg ? RunFilterStageReplicated(*rg, sel, q, stats, &parallel_ms)
           : RunFilterStage(dev_a, filter, q, stats);
    r.filter_host_ms += NowMs() - t0;
    if (!fresh.ok()) continue;
    ++r.queries;
    r.filter_sim_ms +=
        rg ? parallel_ms : stats.filter.SimulatedMs(dev_a.config());
    r.filter_gld += stats.filter.gld;
    r.filter_kernels += stats.filter.kernel_launches;
    r.filter_txn += Transactions(stats.filter);
    const std::shared_ptr<const FilterCache::Entry> entry =
        FilterCache::MakeEntry(*fresh);
    r.min_candidates.push_back(static_cast<double>(entry->min_candidate_size));
    auto materialize = [&](gpusim::Device& dev) {
      return FilterCache::Materialize(dev, *entry, data.num_vertices(),
                                      go.filter.build_bitmaps);
    };

    t0 = NowMs();
    FilterResult hit = materialize(dev_a);
    r.hit_host_us += (NowMs() - t0) * 1000.0;

    {
      t0 = NowMs();
      const Result<PagedQueryResult> joined =
          RunJoinStageShardedPaged(one_dev, data, *store, go, ShardOptions(),
                                   q, std::move(hit), stats);
      r.join_host_ms += NowMs() - t0;
      if (joined.ok()) {
        const QueryStats& js = joined->stats;
        r.join_sim_ms += js.join_ms;
        r.join_gld += js.join.gld;
        r.join_gst += js.join.gst;
        r.join_txn += Transactions(js.join);
        r.peak_rows = std::max(r.peak_rows, js.join_detail.peak_rows);
        r.dup_hits += js.join_detail.dup_cache_hits;
        r.dup_lookups +=
            js.join_detail.dup_cache_hits + js.join_detail.dup_cache_misses;
      }
    }
    {
      FilterResult hit2 = materialize(dev_a);
      t0 = NowMs();
      (void)RunJoinStageShardedPaged(two_devs, data, *store, go,
                                     ShardOptions(), q, std::move(hit2),
                                     stats);
      r.sharded_host_ms += NowMs() - t0;
    }
    if (rg) {
      FilterResult hit3 = materialize(*primary);
      t0 = NowMs();
      (void)RunJoinStageReplicatedPaged(*rg, sel, q, std::move(hit3), stats);
      r.replicated_host_ms += NowMs() - t0;
    }
  }
  for (const Graph& q : rejected) {
    QueryStats stats;
    Result<FilterResult> fresh = RunFilterStage(dev_a, filter, q, stats);
    if (!fresh.ok()) continue;
    t0 = NowMs();
    const Result<PagedQueryResult> joined =
        RunJoinStageShardedPaged(one_dev, data, *store, go, ShardOptions(), q,
                                 std::move(fresh.value()), stats);
    if (!joined.ok() &&
        joined.status().code() == StatusCode::kResourceExhausted) {
      r.join_failed_host_ms += NowMs() - t0;
    }
  }
  return r;
}

/// Duration in milliseconds of every span called `name`.
void SpanDurations(const std::vector<obs::TraceSpan>& spans,
                   const std::string& name, std::vector<double>& out) {
  for (const obs::TraceSpan& s : spans) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

std::vector<Metric> PerLayerMetrics(const TracedRun& run) {
  const Workload& w = *run.workload;
  const ServiceStats& a = run.after;
  const ServiceStats& b = run.before;
  const std::vector<Outcome>& outcomes = *run.outcomes;

  size_t ok = 0;
  size_t service_spans = 0;
  size_t filter_spans = 0;
  size_t hit_spans = 0;
  std::vector<double> submit_us;
  std::vector<double> later_fetch_us;
  std::vector<double> queue_wait_ms;
  std::vector<double> join_step_ms;
  std::vector<double> gather_ms;
  std::vector<double> merge_ms;
  for (const Outcome& o : outcomes) {
    if (o.result.code == StatusCode::kOk) ++ok;
    submit_us.push_back(o.submit_us);
    later_fetch_us.insert(later_fetch_us.end(), o.later_fetch_us.begin(),
                          o.later_fetch_us.end());
    if (!o.service_trace) continue;
    const std::vector<obs::TraceSpan> spans = o.service_trace->Snapshot();
    service_spans += spans.size();
    SpanDurations(spans, "queue_wait", queue_wait_ms);
    SpanDurations(spans, "join_step", join_step_ms);
    SpanDurations(spans, "candidate_gather", gather_ms);
    SpanDurations(spans, "result_merge", merge_ms);
    for (const obs::TraceSpan& s : spans) {
      if (s.name != "filter") continue;
      ++filter_spans;
      for (const auto& [k, v] : s.attrs) {
        if (k == "cache" && v == "hit") ++hit_spans;
      }
    }
  }
  const size_t bench_spans =
      run.bench_tracer ? run.bench_tracer->Snapshot().size() : 0;
  std::printf("# traced window: %zu queries (%zu ok), %zu service spans, "
              "%zu client spans; filter spans with cache=hit: %zu of %zu\n",
              outcomes.size(), ok, service_spans, bench_spans, hit_spans,
              filter_spans);

  const Replay rp =
      RunReplay(w, *run.data, *run.stream, *run.reference, *run.rejected);
  std::printf("# layer replay: %zu admitted and %zu rejected shapes "
              "through the stage calls\n",
              rp.queries, run.rejected->size());
  const double rq = static_cast<double>(rp.queries);
  const double completed =
      static_cast<double>(a.completed_ok - b.completed_ok);
  const double dok = static_cast<double>(ok);
  const double cache_hits = static_cast<double>(a.cache.hits - b.cache.hits);
  const double cache_lookups =
      cache_hits + static_cast<double>(a.cache.misses - b.cache.misses);
  std::vector<double> min_candidates = rp.min_candidates;
  const double join_step_max =
      join_step_ms.empty()
          ? 0
          : *std::max_element(join_step_ms.begin(), join_step_ms.end());

  std::vector<Metric> m;
  auto add = [&](const char* name, double v, const char* unit) {
    m.push_back({name, v, unit, 0});
  };
  auto add_pct = [&](const char* name, std::vector<double>& v, double p,
                     const char* unit) {
    const size_t samples = v.size();
    m.push_back({name, Percentile(v, p), unit, samples});
  };
  add_pct("service.submit_us.p50", submit_us, 0.5, "us");
  add_pct("service.queue_wait_ms.p50", queue_wait_ms, 0.5, "ms");
  add_pct("service.queue_wait_ms.p99", queue_wait_ms, 0.99, "ms");
  add_pct("service.fetch_page_us.p50", later_fetch_us, 0.5, "us");
  add("service.pages_per_query",
      Ratio(static_cast<double>(a.result_pages - b.result_pages), dok),
      "count");
  add("service.page_out_mb",
      Ratio(static_cast<double>(a.result_page_bytes - b.result_page_bytes) /
                kMiB,
            dok),
      "MB");
  m.push_back({"service.sim_latency_ms.p99", a.p99_simulated_ms, "ms",
               std::min<size_t>(a.completed_ok, 4096)});
  add("service.filter_cache.hit_rate", Ratio(cache_hits, cache_lookups),
      "ratio");
  add("service.filter_cache.evictions",
      static_cast<double>(a.cache.evictions - b.cache.evictions), "count");
  add("service.pool.blocked",
      static_cast<double>(a.pool.blocked - b.pool.blocked), "count");
  add("service.pool.try_failed",
      static_cast<double>(a.pool.try_failed - b.pool.try_failed), "count");
  add("service.pool.group_blocked",
      static_cast<double>(a.pool.group_blocked - b.pool.group_blocked),
      "count");
  add("service.pool.replica_pick_skew", a.replica_pick_skew, "ratio");
  add("service.retries", static_cast<double>(a.retries - b.retries), "count");

  add("gsi.filter.host_ms", Ratio(rp.filter_host_ms, rq), "ms");
  add("gsi.filter.sim_ms", Ratio(rp.filter_sim_ms, rq), "ms");
  add("gsi.filter.gld", Ratio(static_cast<double>(rp.filter_gld), rq),
      "count");
  add("gsi.filter.kernels", Ratio(static_cast<double>(rp.filter_kernels), rq),
      "count");
  add("gsi.filter.hit_host_us", Ratio(rp.hit_host_us, rq), "us");
  add_pct("gsi.filter.min_candidates", min_candidates, 0.5, "count");

  add("gsi.join.host_ms", Ratio(rp.join_host_ms, rq), "ms");
  add("gsi.join.sim_ms", Ratio(rp.join_sim_ms, rq), "ms");
  add("gsi.join.gld", Ratio(static_cast<double>(rp.join_gld), rq), "count");
  add("gsi.join.gst", Ratio(static_cast<double>(rp.join_gst), rq), "count");
  add("gsi.join.step_sim_ms.max", join_step_max, "ms");
  add("gsi.join.peak_rows", static_cast<double>(rp.peak_rows), "count");
  add("gsi.join.dup_hit_rate",
      Ratio(static_cast<double>(rp.dup_hits),
            static_cast<double>(rp.dup_lookups)),
      "ratio");
  add("gsi.join.failed_host_share",
      Ratio(rp.join_failed_host_ms, rp.join_host_ms + rp.join_failed_host_ms),
      "ratio");

  add("gsi.sharded.fanout_share",
      Ratio(static_cast<double>(a.sharded_queries - b.sharded_queries),
            completed),
      "ratio");
  add("gsi.sharded.shard_skew.max", a.max_shard_skew, "ratio");
  add("gsi.sharded.host_ms", Ratio(rp.sharded_host_ms, rq), "ms");

  add("gsi.replication.remote_probes_per_query",
      Ratio(static_cast<double>(a.remote_probes - b.remote_probes), completed),
      "count");
  add("gsi.replication.co_located_probes_per_query",
      Ratio(static_cast<double>(a.co_located_probes - b.co_located_probes),
            completed),
      "count");
  add("gsi.replication.halo_mb_per_query",
      Ratio(static_cast<double>(a.halo_bytes - b.halo_bytes) / kMiB,
            completed),
      "MB");
  add("gsi.replication.partition_skew.max", a.max_partition_skew, "ratio");
  add("gsi.replication.gather_sim_ms", Ratio(Sum(gather_ms), dok), "ms");
  add("gsi.replication.merge_sim_ms", Ratio(Sum(merge_ms), dok), "ms");
  add("gsi.replication.host_ms", Ratio(rp.replicated_host_ms, rq), "ms");

  add("gsi.halo_cache.hit_rate",
      Ratio(run.halo_hits, run.halo_hits + run.halo_misses), "ratio");
  add("gsi.halo_cache.evictions", run.halo_evictions, "count");
  add("gsi.halo_cache.resident_mb", run.halo_resident_bytes / kMiB, "MB");
  add("gsi.result_manifest.resident_mb.peak",
      static_cast<double>(run.peak_cursor_bytes) / kMiB, "MB");

  add("storage.store_build_ms", rp.store_build_ms, "ms");
  add("storage.signature_build_ms", rp.signature_build_ms, "ms");
  add("storage.replica_build_ms", rp.replica_build_ms, "ms");
  add("storage.resident_mb_per_device", rp.resident_mb_per_device, "MB");

  add("gpusim.filter_ns_per_txn",
      Ratio(rp.filter_host_ms * 1e6, static_cast<double>(rp.filter_txn)),
      "ns");
  add("gpusim.join_ns_per_txn",
      Ratio(rp.join_host_ms * 1e6, static_cast<double>(rp.join_txn)), "ns");
  add("gpusim.txn_per_query", Ratio(run.gld + run.gst + run.remote, completed),
      "count");
  add("gpusim.kernels_per_query", Ratio(run.kernels, completed), "count");

  add("obs.trace_overhead",
      run.traced_qps > 0 ? run.untraced_qps / run.traced_qps - 1 : 0,
      "ratio");
  add("obs.spans_per_query",
      Ratio(static_cast<double>(service_spans + bench_spans),
            static_cast<double>(outcomes.size())),
      "count");
  return m;
}

}  // namespace gsi::perfbench
