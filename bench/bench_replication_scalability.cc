// Replication scalability (the concurrency knob on top of the partitioned
// data graph): each of K partitions stored on R of the K pool devices
// (staggered placement, gsi/replication.h), so a partitioned query leases
// one replica of each — K/R devices — instead of the whole pool, and R
// queries run concurrently. Sweeps R at fixed K and reports, per sweep
// point, the concurrent partitioned-query throughput (both the modeled
// R-lane simulated rate and the measured wall rate of a saturated
// QueryService), the per-device resident cost replication buys it with
// (~R/K of the replica), and the interconnect traffic co-located replicas
// absorb (remote probes served locally). The match table is checked
// bit-identical against single-device execution at every sweep point, for
// both a packed and a rotated replica selection.
//
// Knobs: GSI_BENCH_REPLICAS="1 2 4" (replication factors, each <= K),
// GSI_BENCH_REPL_PARTITIONS=4 (K: partitions == pool devices),
// GSI_BENCH_REPL_QUERIES=12 (queries per concurrent measurement),
// GSI_BENCH_HALO_BUDGET=<bytes> (per-device halo-cache budget; > 0 adds a
// cached leg per sweep point with halo_cache_hit_rate /
// saved_remote_transactions / halo_cache_mb_per_device extras — a no-op at
// R == K, where every probe is co-resident and the cache sees nothing),
// plus the usual GSI_BENCH_SCALE / GSI_BENCH_QUERIES / GSI_BENCH_QSIZE.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "gsi/replication.h"
#include "service/query_service.h"
#include "util/check.h"
#include "util/timer.h"

namespace gsi::bench {
namespace {

constexpr double kMb = 1024.0 * 1024.0;

TableCollector& Table() {
  static auto& t = *new TableCollector(
      "Replication scalability: K partitions x R replicas over K devices "
      "(GSI-opt; QPS from concurrent partitioned queries)",
      {"Replicas", "Lanes", "Resident/dev MB", "Mem cost", "Sim ms/query",
       "QPS (sim lanes)", "QPS (wall)", "Remote probes", "Co-located",
       "Pick skew", "Matches"});
  return t;
}

size_t Partitions() {
  static const size_t k = [] {
    const char* env = std::getenv("GSI_BENCH_REPL_PARTITIONS");
    const long v = env != nullptr ? std::atol(env) : 0;
    return v > 0 ? static_cast<size_t>(v) : size_t{4};
  }();
  return k;
}

std::vector<size_t> ReplicaCounts() {
  static auto& counts = *new std::vector<size_t>([] {
    std::vector<size_t> out;
    const char* env = std::getenv("GSI_BENCH_REPLICAS");
    std::stringstream ss(env != nullptr ? env : "1 2 4");
    size_t v = 0;
    while (ss >> v) {
      if (v > 0 && v <= Partitions()) out.push_back(v);
    }
    if (out.empty()) out = {1};
    return out;
  }());
  return counts;
}

size_t ConcurrentQueries() {
  static const size_t n = [] {
    const char* env = std::getenv("GSI_BENCH_REPL_QUERIES");
    const long v = env != nullptr ? std::atol(env) : 0;
    return v > 0 ? static_cast<size_t>(v) : size_t{12};
  }();
  return n;
}

const QueryEngine& Engine() {
  static auto& engine =
      *new QueryEngine(GetDataset("enron").graph, GsiOptOptions());
  return engine;
}

/// Per-device halo-cache budget in bytes; 0 (the default) skips the leg.
uint64_t HaloBudget() {
  static const uint64_t budget = [] {
    const char* env = std::getenv("GSI_BENCH_HALO_BUDGET");
    return env != nullptr ? std::strtoull(env, nullptr, 10) : uint64_t{0};
  }();
  return budget;
}

/// The heaviest query of the generated workload (max single-device
/// simulated time) — replication's lane effect shows clearest where one
/// query occupies its lease longest.
const Graph& HeavyQuery() {
  static auto& query = *new Graph([] {
    const std::vector<Graph>& all =
        GetQueries("enron", Env().query_vertices, 0, Env().queries);
    const Graph* heaviest = nullptr;
    double worst_ms = -1;
    for (const Graph& q : all) {
      Result<QueryResult> r = Engine().Execute({.query = &q});
      if (!r.ok()) continue;
      if (r->stats.total_ms > worst_ms) {
        worst_ms = r->stats.total_ms;
        heaviest = &q;
      }
    }
    GSI_CHECK_MSG(heaviest != nullptr, "no query executed successfully");
    std::fprintf(stderr, "[bench] heavy query: %s, %.2f ms single-device\n",
                 heaviest->Summary().c_str(), worst_ms);
    return *heaviest;
  }());
  return query;
}

/// The selection serving every partition from replica j (j=1 rotates every
/// partition onto a different device than the packed pick).
ReplicaSelection UniformSelection(const ReplicatedGraph& rg, uint32_t j) {
  ReplicaSelection sel;
  sel.choice.assign(rg.num_partitions(), j);
  return sel;
}

void BM_Replication(benchmark::State& state, size_t replicas) {
  const size_t k = Partitions();
  // Build once per sweep point: the replicated structures are the
  // long-lived state under test.
  std::vector<std::unique_ptr<gpusim::Device>> devices;
  std::vector<gpusim::Device*> devs;
  for (size_t i = 0; i < k; ++i) {
    devices.push_back(
        std::make_unique<gpusim::Device>(Engine().options().device));
    devs.push_back(devices.back().get());
  }
  Result<ReplicatedGraph> rg =
      ReplicatedGraph::Build(devs, GetDataset("enron").graph,
                             Engine().options(), HashVertexPartitioner(),
                             /*partitions=*/k, replicas);
  GSI_CHECK_MSG(rg.ok(), rg.status().ToString().c_str());

  Result<QueryResult> single = Engine().Execute({.query = &HeavyQuery()});
  GSI_CHECK(single.ok());

  const ReplicaSelection packed = CompactSelection(*rg);
  const QueryEngine::ExecRequest packed_req{
      .query = &HeavyQuery(), .replicated = &*rg, .selection = &packed};
  MaybeTraceQuery("replicated", [&](const obs::TraceContext& ctx) {
    QueryEngine::ExecRequest traced = packed_req;
    traced.trace = ctx;
    (void)Engine().Execute(traced);
  });
  size_t lane_width = 0;
  {
    std::vector<uint8_t> used(k, 0);
    for (PartitionId p = 0; p < k; ++p) {
      used[packed.DeviceOf(rg->placement(), p)] = 1;
    }
    for (uint8_t u : used) lane_width += u;
  }
  const size_t lanes = k / lane_width;

  QueryStats stats;
  double wall_qps = 0;
  ServiceStats service_stats;
  for (auto _ : state) {
    // One packed-selection execution: the per-query simulated latency and
    // traffic of a lane.
    Result<QueryResult> repl = Engine().Execute(packed_req);
    GSI_CHECK(repl.ok());
    stats = repl->stats;
    state.SetIterationTime(std::max(1e-9, stats.total_ms / 1000.0));

    // Results must be bit-identical to the single-device run regardless of
    // which replica serves each partition.
    GSI_CHECK_MSG(repl->TableEquals(*single),
                  "packed replica selection diverged from replicated run");
    const ReplicaSelection rotation = UniformSelection(*rg, replicas - 1);
    Result<QueryResult> rotated = Engine().Execute(
        {.query = &HeavyQuery(), .replicated = &*rg, .selection = &rotation});
    GSI_CHECK(rotated.ok());
    GSI_CHECK_MSG(rotated->TableEquals(*single),
                  "rotated replica selection diverged from replicated run");

    // Measured concurrency: a saturated QueryService over a K-device pool
    // with R-way replicated partitions (R == 1 leases the whole pool per
    // query, so queries serialize — the baseline the lanes are bought
    // against).
    ServiceOptions so;
    so.num_workers = static_cast<int>(k);
    so.num_devices = static_cast<int>(k);
    so.partition_data_graph = true;
    so.partition_replicas = static_cast<int>(replicas);
    so.overload = OverloadPolicy::kBlock;
    so.max_queue_depth = 2 * ConcurrentQueries();
    QueryService service(GetDataset("enron").graph, Engine().options(), so);
    GSI_CHECK_MSG(service.init_status().ok(),
                  service.init_status().ToString().c_str());
    WallTimer wall;
    std::vector<QueryTicket> tickets;
    for (size_t i = 0; i < ConcurrentQueries(); ++i) {
      Result<QueryTicket> t = service.Submit(HeavyQuery());
      GSI_CHECK(t.ok());
      tickets.push_back(*t);
    }
    for (const QueryTicket& t : tickets) {
      Result<QueryResult> r = service.Wait(t);
      GSI_CHECK(r.ok());
      GSI_CHECK_MSG(r->TableEquals(*single),
                    "service replica execution diverged");
    }
    const double wall_ms = wall.ElapsedMs();
    wall_qps = wall_ms > 0 ? static_cast<double>(ConcurrentQueries()) /
                                 (wall_ms / 1000.0)
                           : 0;
    service_stats = service.stats();
  }

  const ReplicationBuildStats& bs = rg->build_stats();
  const double resident_mb =
      static_cast<double>(bs.max_resident_bytes()) / kMb;
  const double replicated_mb = static_cast<double>(bs.replicated_bytes) / kMb;
  // Resident cost relative to an unreplicated 1/K share (~R).
  const double mem_cost =
      replicated_mb > 0 ? resident_mb / (replicated_mb / k) : 0;
  // The lane model: `lanes` disjoint selections execute concurrently, each
  // at the packed selection's simulated latency.
  const double qps_sim =
      stats.total_ms > 0 ? lanes * 1000.0 / stats.total_ms : 0;
  const double halo_mb = static_cast<double>(stats.halo_bytes) / kMb;

  std::vector<std::pair<std::string, double>> extras = {
      {"concurrent_qps", qps_sim},
      {"wall_qps", wall_qps},
      {"lanes", static_cast<double>(lanes)},
      {"lane_width_devices", static_cast<double>(lane_width)},
      {"sim_latency_ms", stats.total_ms},
      {"resident_mb_per_device", resident_mb},
      {"replicated_mb", replicated_mb},
      {"memory_cost_vs_share", mem_cost},
      {"remote_probes", static_cast<double>(stats.remote_probes)},
      {"co_located_probes", static_cast<double>(stats.co_located_probes)},
      {"halo_mb", halo_mb},
      {"replica_pick_skew", service_stats.replica_pick_skew},
      {"avg_replica_lanes", service_stats.avg_replica_lanes},
      {"bit_identical", 1.0}};

  if (HaloBudget() > 0 && replicas < k) {
    // The cached leg: the same replicated layout with per-device halo
    // caches of HaloBudget() bytes. Cold run fills them, warm run measures
    // the steady state; the uncached loop above is the remote-transaction
    // baseline. Skipped at R == K: every probe is then co-resident, so the
    // cache by design admits nothing.
    GsiOptions budgeted = Engine().options();
    budgeted.halo_budget_bytes = HaloBudget();
    std::vector<std::unique_ptr<gpusim::Device>> cache_devices;
    std::vector<gpusim::Device*> cache_devs;
    for (size_t i = 0; i < k; ++i) {
      cache_devices.push_back(
          std::make_unique<gpusim::Device>(budgeted.device));
      cache_devs.push_back(cache_devices.back().get());
    }
    Result<ReplicatedGraph> cached = ReplicatedGraph::Build(
        cache_devs, GetDataset("enron").graph, budgeted,
        HashVertexPartitioner(), /*partitions=*/k, replicas);
    GSI_CHECK_MSG(cached.ok(), cached.status().ToString().c_str());
    const QueryResult cold = ExecuteCompact(*cached, HeavyQuery());
    const QueryResult warm = ExecuteCompact(*cached, HeavyQuery());
    const bool identical =
        cold.TableEquals(*single) && warm.TableEquals(*single);
    GSI_CHECK_MSG(identical, "halo-cached result diverged from replicated");

    const uint64_t baseline_tx = stats.filter.remote_transactions +
                                 stats.join.remote_transactions;
    const uint64_t warm_tx = warm.stats.filter.remote_transactions +
                             warm.stats.join.remote_transactions;
    const double hit_rate =
        warm.stats.halo_cache_hits + warm.stats.remote_probes > 0
            ? static_cast<double>(warm.stats.halo_cache_hits) /
                  static_cast<double>(warm.stats.halo_cache_hits +
                                      warm.stats.remote_probes)
            : 0;
    uint64_t cache_bytes = 0;
    for (size_t d = 0; d < cache_devs.size(); ++d) {
      cache_bytes =
          std::max(cache_bytes, cached->halo_cache(d)->resident_bytes());
    }
    extras.push_back({"halo_cache_hit_rate", hit_rate});
    extras.push_back({"saved_remote_transactions",
                      static_cast<double>(baseline_tx) -
                          static_cast<double>(warm_tx)});
    extras.push_back({"halo_cache_mb_per_device",
                      static_cast<double>(cache_bytes) / kMb});
    extras.push_back({"halo_bit_identical", identical ? 1.0 : 0.0});
    state.counters["halo_cache_hit_rate"] = hit_rate;
  }

  state.counters["concurrent_qps"] = qps_sim;
  state.counters["wall_qps"] = wall_qps;
  state.counters["resident_mb_per_device"] = resident_mb;
  Table().AddRow(
      {std::to_string(replicas), std::to_string(lanes),
       TablePrinter::FormatMs(resident_mb),
       TablePrinter::FormatSpeedup(mem_cost),
       TablePrinter::FormatMs(stats.total_ms),
       TablePrinter::FormatMs(qps_sim), TablePrinter::FormatMs(wall_qps),
       TablePrinter::FormatCount(stats.remote_probes),
       TablePrinter::FormatCount(stats.co_located_probes),
       TablePrinter::FormatSpeedup(service_stats.replica_pick_skew),
       TablePrinter::FormatCount(stats.num_matches)});
  RecordJson(
      {"replication_scalability",
       "partitions=" + std::to_string(k) +
           ",replicas=" + std::to_string(replicas),
       /*qps=*/qps_sim,
       /*p50_ms=*/stats.total_ms,
       /*p99_ms=*/stats.total_ms, std::move(extras)});
}

void RegisterAll() {
  for (size_t replicas : ReplicaCounts()) {
    benchmark::RegisterBenchmark(
        ("replication/replicas=" + std::to_string(replicas)).c_str(),
        [replicas](benchmark::State& s) { BM_Replication(s, replicas); })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace gsi::bench

int main(int argc, char** argv) {
  gsi::bench::RegisterAll();
  return gsi::bench::BenchMain(argc, argv, {&gsi::bench::Table()});
}
