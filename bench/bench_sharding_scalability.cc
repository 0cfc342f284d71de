// Multi-device sharded execution (Section VIII): one heavy query's join
// phase fanned out across a device pool. Sweeps the device count and
// reports the simulated single-query speedup curve, the shard balance
// (skew) and the merge cost. The sharded match table is checked
// bit-identical against the single-device run on every sweep point.
//
// Knobs: GSI_BENCH_DEVICES="1 2 4 8" (device counts), plus the usual
// GSI_BENCH_SCALE / GSI_BENCH_QUERIES / GSI_BENCH_QSIZE.

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gsi/sharded_engine.h"
#include "service/device_pool.h"
#include "util/check.h"

namespace gsi::bench {
namespace {

TableCollector& Table() {
  static auto& t = *new TableCollector(
      "Sharding scalability: one heavy query across a device pool "
      "(GSI-opt, simulated time)",
      {"Devices", "Shards", "Filter ms", "Join ms", "Total ms", "Speedup",
       "Skew", "Matches"});
  return t;
}

double SingleDeviceMs() {
  static const double ms = [] {
    Result<QueryResult> r = EnronEngine().Execute({.query = &HeavyQuery()});
    GSI_CHECK(r.ok());
    return r->stats.total_ms;
  }();
  return ms;
}

void BM_Sharding(benchmark::State& state, size_t num_devices) {
  QueryStats stats;
  for (auto _ : state) {
    DevicePool pool(num_devices, EnronEngine().options().device);
    std::vector<DevicePool::Lease> leases = pool.AcquireAll().value();
    std::vector<gpusim::Device*> devs;
    for (DevicePool::Lease& l : leases) devs.push_back(l.get());

    MaybeTraceQuery("sharded", [&](const obs::TraceContext& ctx) {
      (void)EnronEngine().Execute(
          {.query = &HeavyQuery(), .devices = devs, .trace = ctx});
    });

    Result<QueryResult> sharded =
        EnronEngine().Execute({.query = &HeavyQuery(), .devices = devs});
    GSI_CHECK(sharded.ok());
    stats = sharded->stats;
    state.SetIterationTime(std::max(1e-9, stats.total_ms / 1000.0));

    // The merged table must be bit-identical to the single-device run.
    Result<QueryResult> single =
        EnronEngine().Execute({.query = &HeavyQuery()});
    GSI_CHECK(single.ok());
    GSI_CHECK_MSG(sharded->TableEquals(*single),
                  "sharded result diverged from single-device run");
  }

  const double speedup =
      stats.total_ms > 0 ? SingleDeviceMs() / stats.total_ms : 0;
  state.counters["total_ms"] = stats.total_ms;
  state.counters["speedup"] = speedup;
  state.counters["shards"] = static_cast<double>(stats.shards_used);
  Table().AddRow({std::to_string(num_devices),
                  std::to_string(stats.shards_used),
                  TablePrinter::FormatMs(stats.filter_ms),
                  TablePrinter::FormatMs(stats.join_ms),
                  TablePrinter::FormatMs(stats.total_ms),
                  TablePrinter::FormatSpeedup(speedup),
                  TablePrinter::FormatSpeedup(stats.shard_skew),
                  TablePrinter::FormatCount(stats.num_matches)});
  RecordJson({"sharding_scalability",
              "devices=" + std::to_string(num_devices),
              /*qps=*/stats.total_ms > 0 ? 1000.0 / stats.total_ms : 0,
              /*p50_ms=*/stats.total_ms,
              /*p99_ms=*/stats.total_ms,
              /*extras=*/
              {{"shards", static_cast<double>(stats.shards_used)},
               {"join_ms", stats.join_ms},
               {"join_device_ms",
                stats.join.SimulatedMs(EnronEngine().options().device)},
               {"skew", stats.shard_skew}}});
}

void RegisterAll() {
  for (size_t devices : EnvCounts("GSI_BENCH_DEVICES", "1 2 4 8")) {
    benchmark::RegisterBenchmark(
        ("sharding/devices=" + std::to_string(devices)).c_str(),
        [devices](benchmark::State& s) { BM_Sharding(s, devices); })
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
