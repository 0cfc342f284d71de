// Partitioned data-graph execution (Section VIII's multi-GPU scaling, with
// the data graph split across device memories instead of replicated): the
// PCSR + signature table divided into K partitions over a pool of K
// devices, each partition stored on R of them (staggered placement,
// gsi/replication.h), cross-partition probes charged at the interconnect
// premium. One grid over that one execution path:
//
//   * the K sweep at R = 1 (GSI_BENCH_PARTITIONS, default "1 2 4 8"): the
//     memory-capacity trade. Per-device residency against the replicated
//     footprint, and the cross-partition overhead that buys it (remote
//     probes, halo volume, skew, slowdown against the same path at K = 1).
//     Records `partition_scalability` / `partitions=K,partitioner=P`.
//   * the R sweep at K = 4 (GSI_BENCH_REPLICAS, default "1 2 4", each
//     <= 4): the concurrency trade. A query leases one replica of each
//     partition (K/R devices), so R queries run at once: the modeled lane
//     QPS, the wall QPS of a saturated QueryService burst, the residency
//     replication costs (~R/K of the replica) and the probes co-resident
//     replicas absorb. Records `replication_scalability` /
//     `partitions=4,replicas=R`.
//
// The shared point (K = 4, R = 1) executes once and writes both records.
// Every point checks its match table bit-identical against single-device
// execution; R-sweep points also check a rotated replica selection and
// every result of the service burst.
//
// Knobs: GSI_BENCH_PARTITIONS, GSI_BENCH_REPLICAS,
// GSI_BENCH_PARTITIONER=hash|greedy (both sweeps),
// GSI_BENCH_HALO_BUDGET=<bytes> (per-lane halo-cache budget; > 0 adds a
// cached leg at every point with 1 < K and R < K, whose
// halo_cache_hit_rate / saved_remote_transactions / halo_bit_identical
// extras go on every record the point writes), plus the usual
// GSI_BENCH_SCALE / GSI_BENCH_QUERIES / GSI_BENCH_QSIZE.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "gsi/partition.h"
#include "gsi/replication.h"
#include "service/query_service.h"
#include "util/check.h"
#include "util/timer.h"

namespace gsi::bench {
namespace {

constexpr double kMb = 1024.0 * 1024.0;
/// K of the R sweep: partitions == pool devices.
constexpr size_t kReplicationPartitions = 4;
/// Queries per saturated QueryService burst (R-sweep points).
constexpr size_t kBurstQueries = 12;

using Extras = std::vector<std::pair<std::string, double>>;

TableCollector& Table() {
  static auto& t = *new TableCollector(
      "Partitioned scalability: K partitions x R replicas over K devices "
      "(GSI-opt; simulated time, wall QPS from concurrent queries)",
      {"K", "R", "Lanes", "Resident/dev MB", "Replicated MB", "Cut edges",
       "Remote probes", "Co-located", "Halo MB", "Skew", "Sim ms",
       "Vs replicated", "QPS (sim lanes)", "QPS (wall)", "Pick skew",
       "Matches"});
  return t;
}

/// GSI_BENCH_PARTITIONER=hash|greedy (default hash), for both sweeps.
const std::shared_ptr<const GraphPartitioner>& Partitioner() {
  static const auto& p = *new std::shared_ptr<const GraphPartitioner>(
      []() -> std::shared_ptr<const GraphPartitioner> {
        const char* env = std::getenv("GSI_BENCH_PARTITIONER");
        if (env != nullptr && std::string(env) == "greedy") {
          return std::make_shared<GreedyEdgeCutPartitioner>();
        }
        return std::make_shared<HashVertexPartitioner>();
      }());
  return p;
}

/// Per-lane halo-cache budget in bytes; 0 (the default) skips the leg.
uint64_t HaloBudget() {
  static const uint64_t budget = [] {
    const char* env = std::getenv("GSI_BENCH_HALO_BUDGET");
    return env != nullptr ? std::strtoull(env, nullptr, 10) : uint64_t{0};
  }();
  return budget;
}

/// K fresh devices holding the enron graph as K partitions x R replicas.
/// The graph borrows the devices, so it is declared after them and
/// destroyed first.
struct Layout {
  std::vector<std::unique_ptr<gpusim::Device>> devices;
  std::optional<ReplicatedGraph> graph;
};

Layout BuildLayout(size_t k, size_t r, const GsiOptions& options) {
  Layout out;
  std::vector<gpusim::Device*> devs;
  for (size_t i = 0; i < k; ++i) {
    out.devices.push_back(std::make_unique<gpusim::Device>(options.device));
    devs.push_back(out.devices.back().get());
  }
  Result<ReplicatedGraph> rg = ReplicatedGraph::Build(
      devs, GetDataset("enron").graph, options, *Partitioner(),
      /*partitions=*/k, /*replicas=*/r);
  GSI_CHECK_MSG(rg.ok(), rg.status().ToString().c_str());
  out.graph.emplace(std::move(rg.value()));
  return out;
}

/// Runs the heavy query on `rg` under `sel` through the engine.
Result<QueryResult> ExecuteHeavy(const ReplicatedGraph& rg,
                                 const ReplicaSelection& sel,
                                 const obs::TraceContext& trace = {}) {
  return EnronEngine().Execute({.query = &HeavyQuery(),
                                .replicated = &rg,
                                .selection = &sel,
                                .trace = trace});
}

/// Baseline: the same execution path at K = 1 (the one share is the
/// replica), so "vs replicated" isolates the cross-partition overhead: the
/// candidate gather, remote probes and the seed-run merge.
double ReplicatedMs() {
  static const double ms = [] {
    Layout one = BuildLayout(1, 1, EnronEngine().options());
    Result<QueryResult> r =
        ExecuteHeavy(*one.graph, CompactSelection(*one.graph));
    GSI_CHECK(r.ok());
    return r->stats.total_ms;
  }();
  return ms;
}

/// The halo-cache leg: `rg`'s layout rebuilt with a HaloBudget()-byte
/// budget, so each lane makes one halo cache for the query, run once. The
/// uncached measured run's `stats` are the remote-transaction baseline.
/// Returns the record extras.
Extras HaloLeg(const ReplicatedGraph& rg, const QueryStats& stats,
               const QueryResult& single) {
  GsiOptions budgeted = EnronEngine().options();
  budgeted.halo_budget_bytes = HaloBudget();
  Layout cached =
      BuildLayout(rg.num_devices(), rg.num_replicas(), budgeted);
  // No engine shares the budgeted options, so run the library directly.
  Result<PagedQueryResult> paged = ExecuteQueryReplicatedPaged(
      *cached.graph, CompactSelection(*cached.graph), HeavyQuery());
  GSI_CHECK_MSG(paged.ok(), paged.status().ToString().c_str());
  gpusim::Device scratch(budgeted.device);
  const QueryResult run = ToQueryResult(std::move(paged.value()), scratch);
  const bool identical = run.TableEquals(single);
  GSI_CHECK_MSG(identical, "halo-cached result diverged from replicated");

  const uint64_t baseline_tx =
      stats.filter.remote_transactions + stats.join.remote_transactions;
  const uint64_t cached_tx = run.stats.filter.remote_transactions +
                             run.stats.join.remote_transactions;
  const uint64_t lookups = run.stats.halo_cache_hits + run.stats.remote_probes;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(run.stats.halo_cache_hits) /
                        static_cast<double>(lookups)
                  : 0;
  return {{"halo_cache_hit_rate", hit_rate},
          {"saved_remote_transactions",
           static_cast<double>(baseline_tx) - static_cast<double>(cached_tx)},
          {"halo_bit_identical", identical ? 1.0 : 0.0}};
}

/// What an R-sweep point's service burst measured.
struct Concurrency {
  double wall_qps = 0;
  ServiceStats service;
};

/// The R-sweep checks, after the measured run: a rotated replica selection
/// (every partition served by its last replica) must match `single` too,
/// then a saturated QueryService over a K-device pool with `rg`'s R-way
/// replicated layout serves kBurstQueries heavy queries, each checked
/// against `single`. At R = 1 every query leases the whole pool, so the
/// burst serializes: the baseline the lanes are bought against.
Concurrency MeasureConcurrency(const ReplicatedGraph& rg,
                               const QueryResult& single) {
  ReplicaSelection rotation;
  rotation.choice.assign(rg.num_partitions(),
                         static_cast<uint32_t>(rg.num_replicas() - 1));
  Result<QueryResult> rotated = ExecuteHeavy(rg, rotation);
  GSI_CHECK(rotated.ok());
  GSI_CHECK_MSG(rotated->TableEquals(single),
                "rotated replica selection diverged from replicated run");

  ServiceOptions so;
  so.num_workers = static_cast<int>(rg.num_devices());
  so.num_devices = static_cast<int>(rg.num_devices());
  so.partition_data_graph = true;
  so.partitioner = Partitioner();
  so.partition_replicas = static_cast<int>(rg.num_replicas());
  so.overload = OverloadPolicy::kBlock;
  so.max_queue_depth = 2 * kBurstQueries;
  QueryService service(GetDataset("enron").graph, EnronEngine().options(),
                       so);
  GSI_CHECK_MSG(service.init_status().ok(),
                service.init_status().ToString().c_str());
  WallTimer wall;
  std::vector<QueryTicket> tickets;
  for (size_t i = 0; i < kBurstQueries; ++i) {
    Result<QueryTicket> t = service.Submit(HeavyQuery());
    GSI_CHECK(t.ok());
    tickets.push_back(*t);
  }
  for (const QueryTicket& t : tickets) {
    Result<QueryResult> r = service.Wait(t);
    GSI_CHECK(r.ok());
    GSI_CHECK_MSG(r->TableEquals(single), "service replica execution diverged");
  }
  const double wall_ms = wall.ElapsedMs();
  return {wall_ms > 0 ? kBurstQueries / (wall_ms / 1000.0) : 0,
          service.stats()};
}

/// One (K, R) grid point and the records it writes.
struct GridPoint {
  size_t k = 0;
  size_t r = 0;
  bool k_sweep = false;  ///< writes partition_scalability (R = 1)
  bool r_sweep = false;  ///< writes replication_scalability (K = 4)
};

void BM_GridPoint(benchmark::State& state, const GridPoint& pt) {
  // Build once per grid point: the partitioned structures are the
  // long-lived state under test, the query execution is the measurement.
  Layout layout = BuildLayout(pt.k, pt.r, EnronEngine().options());
  const ReplicatedGraph& rg = *layout.graph;
  Result<QueryResult> single = EnronEngine().Execute({.query = &HeavyQuery()});
  GSI_CHECK(single.ok());

  const ReplicaSelection packed = CompactSelection(rg);
  MaybeTraceQuery("partitioned", [&](const obs::TraceContext& ctx) {
    (void)ExecuteHeavy(rg, packed, ctx);
  });
  // The lane model: the packed selection occupies `lane` devices, so
  // K / |lane| disjoint selections execute concurrently, each at its
  // simulated latency.
  std::set<size_t> lane;
  for (PartitionId p = 0; p < pt.k; ++p) {
    lane.insert(packed.DeviceOf(rg.placement(), p));
  }
  const size_t lanes = pt.k / lane.size();

  QueryStats stats;
  Concurrency concurrency;
  for (auto _ : state) {
    Result<QueryResult> part = ExecuteHeavy(rg, packed);
    GSI_CHECK(part.ok());
    stats = part->stats;
    state.SetIterationTime(std::max(1e-9, stats.total_ms / 1000.0));
    GSI_CHECK_MSG(part->TableEquals(*single),
                  "partitioned result diverged from replicated run");
    if (pt.r_sweep) concurrency = MeasureConcurrency(rg, *single);
  }

  const ReplicationBuildStats& bs = rg.build_stats();
  const double resident_mb = static_cast<double>(bs.max_resident_bytes()) / kMb;
  const double replicated_mb = static_cast<double>(bs.replicated_bytes) / kMb;
  const double halo_mb = static_cast<double>(stats.halo_bytes) / kMb;
  const double vs_replicated =
      stats.total_ms > 0 ? ReplicatedMs() / stats.total_ms : 0;
  const double qps_sim =
      stats.total_ms > 0 ? lanes * 1000.0 / stats.total_ms : 0;
  const Extras halo = HaloBudget() > 0 && 1 < pt.k && pt.r < pt.k
                          ? HaloLeg(rg, stats, *single)
                          : Extras{};

  state.counters["total_ms"] = stats.total_ms;
  state.counters["resident_mb_per_device"] = resident_mb;
  state.counters["concurrent_qps"] = qps_sim;
  Table().AddRow(
      {std::to_string(pt.k), std::to_string(pt.r), std::to_string(lanes),
       TablePrinter::FormatMs(resident_mb),
       TablePrinter::FormatMs(replicated_mb),
       TablePrinter::FormatCount(bs.cut_edges),
       TablePrinter::FormatCount(stats.remote_probes),
       TablePrinter::FormatCount(stats.co_located_probes),
       TablePrinter::FormatMs(halo_mb),
       TablePrinter::FormatSpeedup(stats.partition_skew),
       TablePrinter::FormatMs(stats.total_ms),
       TablePrinter::FormatSpeedup(vs_replicated),
       TablePrinter::FormatMs(qps_sim),
       pt.r_sweep ? TablePrinter::FormatMs(concurrency.wall_qps) : "-",
       pt.r_sweep
           ? TablePrinter::FormatSpeedup(concurrency.service.replica_pick_skew)
           : "-",
       TablePrinter::FormatCount(stats.num_matches)});

  if (pt.k_sweep) {
    Extras extras = {
        {"resident_mb_per_device", resident_mb},
        {"replicated_mb", replicated_mb},
        {"memory_reduction",
         resident_mb > 0 ? replicated_mb / resident_mb : 0},
        {"cut_edges", static_cast<double>(bs.cut_edges)},
        {"remote_probes", static_cast<double>(stats.remote_probes)},
        {"halo_mb", halo_mb},
        {"partition_skew", stats.partition_skew},
        {"vs_replicated", vs_replicated}};
    extras.insert(extras.end(), halo.begin(), halo.end());
    RecordJson({"partition_scalability",
                "partitions=" + std::to_string(pt.k) +
                    ",partitioner=" + rg.partitioner_name(),
                /*qps=*/qps_sim,
                /*p50_ms=*/stats.total_ms,
                /*p99_ms=*/stats.total_ms, std::move(extras)});
  }
  if (pt.r_sweep) {
    // Resident cost relative to an unreplicated 1/K share (~R).
    const double mem_cost =
        replicated_mb > 0 ? resident_mb / (replicated_mb / pt.k) : 0;
    Extras extras = {
        {"concurrent_qps", qps_sim},
        {"wall_qps", concurrency.wall_qps},
        {"lanes", static_cast<double>(lanes)},
        {"lane_width_devices", static_cast<double>(lane.size())},
        {"sim_latency_ms", stats.total_ms},
        {"resident_mb_per_device", resident_mb},
        {"replicated_mb", replicated_mb},
        {"memory_cost_vs_share", mem_cost},
        {"remote_probes", static_cast<double>(stats.remote_probes)},
        {"co_located_probes", static_cast<double>(stats.co_located_probes)},
        {"halo_mb", halo_mb},
        {"replica_pick_skew", concurrency.service.replica_pick_skew},
        {"avg_replica_lanes", concurrency.service.avg_replica_lanes},
        {"bit_identical", 1.0}};
    extras.insert(extras.end(), halo.begin(), halo.end());
    RecordJson({"replication_scalability",
                "partitions=" + std::to_string(pt.k) +
                    ",replicas=" + std::to_string(pt.r),
                /*qps=*/qps_sim,
                /*p50_ms=*/stats.total_ms,
                /*p99_ms=*/stats.total_ms, std::move(extras)});
  }
}

void RegisterAll() {
  // The K sweep at R = 1 plus the R sweep at K = 4, keyed by (K, R) so the
  // point both sweeps share runs once.
  std::map<std::pair<size_t, size_t>, GridPoint> grid;
  for (size_t k : EnvCounts("GSI_BENCH_PARTITIONS", "1 2 4 8")) {
    grid[{k, 1}] = {.k = k, .r = 1, .k_sweep = true};
  }
  for (size_t r : EnvCounts("GSI_BENCH_REPLICAS", "1 2 4")) {
    if (r > kReplicationPartitions) continue;
    GridPoint& pt = grid[{kReplicationPartitions, r}];
    pt.k = kReplicationPartitions;
    pt.r = r;
    pt.r_sweep = true;
  }
  for (const auto& entry : grid) {
    const GridPoint& pt = entry.second;
    benchmark::RegisterBenchmark(
        ("partitioned/partitions=" + std::to_string(pt.k) +
         ",replicas=" + std::to_string(pt.r))
            .c_str(),
        [pt](benchmark::State& s) { BM_GridPoint(s, pt); })
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
