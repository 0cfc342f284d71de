// Table VI — "Performance of techniques in join phase": global-memory load
// transactions (GLD) and query response time for the cumulative
// configurations GSI- (CSR + two-step + naive set ops), +DS (PCSR),
// +PC (Prealloc-Combine) and +SO (GPU-friendly set operations); each
// column's drop/speedup is computed against the previous one.
//
// `--json <path>` writes one record per dataset and configuration (config
// "dataset=<name>,config=<GSI-|+DS|+PC|+SO>"): p50 and p99 both hold the
// mean simulated join ms; extras join_gld (summed over the queries) and
// join_ms.

#include "bench_common.h"

namespace gsi::bench {
namespace {

TableCollector& Table() {
  static auto& t = *new TableCollector(
      "Table VI: Performance of techniques in join phase",
      {"Dataset", "Config", "Join GLD", "GLD drop", "Join time (ms)",
       "Speedup"});
  return t;
}

struct ConfigCase {
  const char* name;
  GsiOptions options;
};

std::vector<ConfigCase> Configs() {
  GsiOptions minus = GsiMinusOptions();
  GsiOptions ds = minus;
  ds.join.storage = StorageKind::kPcsr;
  GsiOptions pc = ds;
  pc.join.output_scheme = OutputScheme::kPreallocCombine;
  GsiOptions so = pc;
  so.join.set_op = SetOpKind::kWarpFriendly;
  so.join.write_cache = true;
  return {{"GSI-", minus}, {"+DS", ds}, {"+PC", pc}, {"+SO", so}};
}

// Keyed per dataset so drops/speedups chain across the 4 runs.
struct PrevState {
  uint64_t gld = 0;
  double ms = 0;
};

void BM_JoinPhase(benchmark::State& state, const std::string& dataset,
                  size_t config_index) {
  static auto& prev = *new std::map<std::string, PrevState>();
  const ConfigCase cc = Configs()[config_index];
  const auto& queries =
      GetQueries(dataset, Env().query_vertices, 0, Env().queries);

  Aggregate agg;
  for (auto _ : state) {
    agg = RunGsi(dataset, cc.options, queries);
    state.SetIterationTime(std::max(1e-9, agg.sum_join_ms / 1000.0));
  }
  double join_ms = agg.ok ? agg.sum_join_ms / agg.ok : 0;
  state.counters["join_gld"] = static_cast<double>(agg.gld);
  state.counters["join_ms"] = join_ms;
  state.counters["failed"] = static_cast<double>(agg.failed);

  std::string drop = "-";
  std::string speedup = "-";
  auto it = prev.find(dataset);
  if (it != prev.end() && agg.gld > 0 && join_ms > 0) {
    drop = TablePrinter::FormatPercent(
        1.0 - static_cast<double>(agg.gld) /
                  static_cast<double>(it->second.gld));
    speedup = TablePrinter::FormatSpeedup(it->second.ms / join_ms);
  }
  prev[dataset] = PrevState{agg.gld, join_ms};
  Table().AddRow({dataset, cc.name, TablePrinter::FormatCount(agg.gld),
                  drop, TablePrinter::FormatMs(join_ms), speedup});
  RecordJson({"table6_join_phase",
              "dataset=" + dataset + ",config=" + cc.name,
              /*qps=*/0,
              /*p50_ms=*/join_ms,
              /*p99_ms=*/join_ms,
              /*extras=*/{{"join_gld", static_cast<double>(agg.gld)},
                          {"join_ms", join_ms}}});
}

void RegisterAll() {
  for (const char* ds :
       {"enron", "gowalla", "road", "watdiv", "dbpedia"}) {
    for (size_t i = 0; i < 4; ++i) {
      benchmark::RegisterBenchmark(
          (std::string("table6/") + ds + "/" + Configs()[i].name).c_str(),
          [ds, i](benchmark::State& s) { BM_JoinPhase(s, ds, i); })
          ->UseManualTime()
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace gsi::bench

int main(int argc, char** argv) {
  gsi::bench::RegisterAll();
  return gsi::bench::BenchMain(argc, argv, {&gsi::bench::Table()});
}
