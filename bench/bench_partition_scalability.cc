// Partitioned data-graph execution (the memory-capacity half of Section
// VIII): the PCSR + signature table split across K device memories instead
// of replicated (a ReplicatedGraph with one replica per partition), with
// cross-partition probes charged at the interconnect premium. Sweeps K and
// reports, per sweep point, the per-device resident footprint against the
// replicated one (the reduction partitioning buys) and the cross-partition
// overhead it costs (remote probes, halo volume, slowdown vs the
// replicated single-device run). The partitioned match table is checked
// bit-identical against GsiMatcher-equivalent execution on every sweep
// point.
//
// Knobs: GSI_BENCH_PARTITIONS="1 2 4 8" (partition counts),
// GSI_BENCH_PARTITIONER=hash|greedy, GSI_BENCH_HALO_BUDGET=<bytes> (per-
// device halo-cache budget; > 0 adds a cached leg per sweep point with
// halo_cache_hit_rate / saved_remote_transactions / halo_cache_mb_per_device
// extras), plus the usual GSI_BENCH_SCALE / GSI_BENCH_QUERIES /
// GSI_BENCH_QSIZE.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "gsi/partition.h"
#include "gsi/replication.h"
#include "util/check.h"

namespace gsi::bench {
namespace {

constexpr double kMb = 1024.0 * 1024.0;

TableCollector& Table() {
  static auto& t = *new TableCollector(
      "Partition scalability: the data graph split across K device "
      "memories (GSI-opt, simulated time)",
      {"Partitions", "Resident/dev MB", "Replicated MB", "Cut edges",
       "Remote probes", "Halo MB", "Skew", "Total ms", "Vs replicated",
       "Matches"});
  return t;
}

std::vector<size_t> PartitionCounts() {
  static auto& counts = *new std::vector<size_t>([] {
    std::vector<size_t> out;
    const char* env = std::getenv("GSI_BENCH_PARTITIONS");
    std::stringstream ss(env != nullptr ? env : "1 2 4 8");
    size_t v = 0;
    while (ss >> v) {
      if (v > 0) out.push_back(v);
    }
    if (out.empty()) out = {1, 2, 4, 8};
    return out;
  }());
  return counts;
}

const GraphPartitioner& Partitioner() {
  static const GraphPartitioner& p = *[]() -> const GraphPartitioner* {
    const char* env = std::getenv("GSI_BENCH_PARTITIONER");
    if (env != nullptr && std::string(env) == "greedy") {
      return new GreedyEdgeCutPartitioner();
    }
    return new HashVertexPartitioner();
  }();
  return p;
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
/// simulated time) — partitioning overhead shows clearest where the join
/// does real work.
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

/// One partition per device, one replica each: the 1/K-per-device layout.
Result<ReplicatedGraph> BuildPartitioned(std::span<gpusim::Device* const> devs,
                                         const GsiOptions& options) {
  return ReplicatedGraph::Build(devs, GetDataset("enron").graph, options,
                                Partitioner(), /*partitions=*/devs.size(),
                                /*replicas=*/1);
}

/// Runs the heavy query against `pg` through the engine.
Result<QueryResult> ExecuteHeavy(const ReplicatedGraph& pg,
                                 const obs::TraceContext& trace = {}) {
  const ReplicaSelection sel = CompactSelection(pg);
  return Engine().Execute({.query = &HeavyQuery(),
                           .replicated = &pg,
                           .selection = &sel,
                           .trace = trace});
}

/// Baseline: the same execution path at K=1 — identical structures (the
/// one share IS the replica), just no partitioning — so "vs replicated"
/// isolates cross-partition overhead (gather, remote probes, merge).
double ReplicatedMs() {
  static const double ms = [] {
    gpusim::Device dev(Engine().options().device);
    gpusim::Device* devp = &dev;
    Result<ReplicatedGraph> pg = ReplicatedGraph::Build(
        {&devp, 1}, GetDataset("enron").graph, Engine().options(),
        HashVertexPartitioner(), /*partitions=*/1, /*replicas=*/1);
    GSI_CHECK(pg.ok());
    Result<QueryResult> r = ExecuteHeavy(*pg);
    GSI_CHECK(r.ok());
    return r->stats.total_ms;
  }();
  return ms;
}

void BM_Partition(benchmark::State& state, size_t num_partitions) {
  // Build once per sweep point: the partitioned structures are the
  // long-lived state under test, the query execution is the measurement.
  std::vector<std::unique_ptr<gpusim::Device>> devices;
  std::vector<gpusim::Device*> devs;
  for (size_t i = 0; i < num_partitions; ++i) {
    devices.push_back(
        std::make_unique<gpusim::Device>(Engine().options().device));
    devs.push_back(devices.back().get());
  }
  Result<ReplicatedGraph> pg = BuildPartitioned(devs, Engine().options());
  GSI_CHECK_MSG(pg.ok(), pg.status().ToString().c_str());

  MaybeTraceQuery("partitioned", [&](const obs::TraceContext& ctx) {
    (void)ExecuteHeavy(*pg, ctx);
  });

  QueryStats stats;
  for (auto _ : state) {
    Result<QueryResult> part = ExecuteHeavy(*pg);
    GSI_CHECK(part.ok());
    stats = part->stats;
    state.SetIterationTime(std::max(1e-9, stats.total_ms / 1000.0));

    // The merged table must be bit-identical to the replicated run.
    Result<QueryResult> single = Engine().Execute({.query = &HeavyQuery()});
    GSI_CHECK(single.ok());
    GSI_CHECK_MSG(part->TableEquals(*single),
                  "partitioned result diverged from replicated run");
  }

  const ReplicationBuildStats& bs = pg->build_stats();
  const double resident_mb = static_cast<double>(bs.max_resident_bytes()) / kMb;
  const double replicated_mb = static_cast<double>(bs.replicated_bytes) / kMb;
  const double halo_mb = static_cast<double>(stats.halo_bytes) / kMb;
  const double vs_replicated =
      stats.total_ms > 0 ? ReplicatedMs() / stats.total_ms : 0;
  state.counters["total_ms"] = stats.total_ms;
  state.counters["resident_mb_per_device"] = resident_mb;
  state.counters["remote_probes"] = static_cast<double>(stats.remote_probes);
  Table().AddRow({std::to_string(num_partitions),
                  TablePrinter::FormatMs(resident_mb),
                  TablePrinter::FormatMs(replicated_mb),
                  TablePrinter::FormatCount(bs.cut_edges),
                  TablePrinter::FormatCount(stats.remote_probes),
                  TablePrinter::FormatMs(halo_mb),
                  TablePrinter::FormatSpeedup(stats.partition_skew),
                  TablePrinter::FormatMs(stats.total_ms),
                  TablePrinter::FormatSpeedup(vs_replicated),
                  TablePrinter::FormatCount(stats.num_matches)});
  std::vector<std::pair<std::string, double>> extras = {
      {"resident_mb_per_device", resident_mb},
      {"replicated_mb", replicated_mb},
      {"memory_reduction", resident_mb > 0 ? replicated_mb / resident_mb : 0},
      {"cut_edges", static_cast<double>(bs.cut_edges)},
      {"remote_probes", static_cast<double>(stats.remote_probes)},
      {"halo_mb", halo_mb},
      {"partition_skew", stats.partition_skew},
      {"vs_replicated", vs_replicated}};

  if (HaloBudget() > 0 && num_partitions > 1) {
    // The cached leg: same graph, same query, per-device halo caches of
    // HaloBudget() bytes. Cold run fills them, warm run measures the steady
    // state; the uncached loop above is the remote-transaction baseline.
    GsiOptions budgeted = Engine().options();
    budgeted.halo_budget_bytes = HaloBudget();
    std::vector<std::unique_ptr<gpusim::Device>> cache_devices;
    std::vector<gpusim::Device*> cache_devs;
    for (size_t i = 0; i < num_partitions; ++i) {
      cache_devices.push_back(
          std::make_unique<gpusim::Device>(budgeted.device));
      cache_devs.push_back(cache_devices.back().get());
    }
    Result<ReplicatedGraph> cached = BuildPartitioned(cache_devs, budgeted);
    GSI_CHECK_MSG(cached.ok(), cached.status().ToString().c_str());
    const QueryResult cold = ExecuteCompact(*cached, HeavyQuery());
    const QueryResult warm = ExecuteCompact(*cached, HeavyQuery());
    Result<QueryResult> single = Engine().Execute({.query = &HeavyQuery()});
    GSI_CHECK(single.ok());
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
    for (size_t d = 0; d < cached->num_devices(); ++d) {
      cache_bytes = std::max(cache_bytes,
                             cached->halo_cache(d)->resident_bytes());
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

  RecordJson(
      {"partition_scalability",
       "partitions=" + std::to_string(num_partitions) + ",partitioner=" +
           pg->partitioner_name(),
       /*qps=*/stats.total_ms > 0 ? 1000.0 / stats.total_ms : 0,
       /*p50_ms=*/stats.total_ms,
       /*p99_ms=*/stats.total_ms, std::move(extras)});
}

void RegisterAll() {
  for (size_t partitions : PartitionCounts()) {
    benchmark::RegisterBenchmark(
        ("partition/partitions=" + std::to_string(partitions)).c_str(),
        [partitions](benchmark::State& s) { BM_Partition(s, partitions); })
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
