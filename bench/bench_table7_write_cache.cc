// Table VII — "Performance of write cache": global-memory store
// transactions (GST) and query response time with and without the 128B
// per-warp write cache, on the full GSI configuration.
//
// `--json <path>` writes one record per dataset (config "dataset=<name>"):
// p50 and p99 both hold the mean simulated join ms with the cache; extras
// gst_nocache and gst_cache (summed over the queries), join_ms_nocache and
// join_ms_cache.

#include "bench_common.h"

namespace gsi::bench {
namespace {

TableCollector& Table() {
  static auto& t = *new TableCollector(
      "Table VII: Performance of write cache",
      {"Dataset", "GST no cache", "GST write cache", "GST drop",
       "Time no cache (ms)", "Time cache (ms)", "Time drop"});
  return t;
}

void BM_WriteCache(benchmark::State& state, const std::string& dataset) {
  const auto& queries =
      GetQueries(dataset, Env().query_vertices, 0, Env().queries);
  GsiOptions with = DefaultGsiOptions();
  with.join.write_cache = true;
  GsiOptions without = DefaultGsiOptions();
  without.join.write_cache = false;

  Aggregate agg_without;
  Aggregate agg_with;
  for (auto _ : state) {
    agg_without = RunGsi(dataset, without, queries);
    agg_with = RunGsi(dataset, with, queries);
    state.SetIterationTime(
        std::max(1e-9, (agg_with.sum_join_ms + agg_without.sum_join_ms) /
                           1000.0));
  }
  double ms_nc = agg_without.ok ? agg_without.sum_join_ms / agg_without.ok
                                : 0;
  double ms_wc = agg_with.ok ? agg_with.sum_join_ms / agg_with.ok : 0;
  state.counters["gst_nocache"] = static_cast<double>(agg_without.gst);
  state.counters["gst_cache"] = static_cast<double>(agg_with.gst);
  double gst_drop =
      agg_without.gst
          ? 1.0 - static_cast<double>(agg_with.gst) /
                      static_cast<double>(agg_without.gst)
          : 0.0;
  double t_drop = ms_nc > 0 ? 1.0 - ms_wc / ms_nc : 0.0;
  Table().AddRow({dataset, TablePrinter::FormatCount(agg_without.gst),
                  TablePrinter::FormatCount(agg_with.gst),
                  TablePrinter::FormatPercent(gst_drop),
                  TablePrinter::FormatMs(ms_nc),
                  TablePrinter::FormatMs(ms_wc),
                  TablePrinter::FormatPercent(t_drop)});
  RecordJson({"table7_write_cache",
              "dataset=" + dataset,
              /*qps=*/0,
              /*p50_ms=*/ms_wc,
              /*p99_ms=*/ms_wc,
              /*extras=*/{{"gst_nocache", static_cast<double>(agg_without.gst)},
                          {"gst_cache", static_cast<double>(agg_with.gst)},
                          {"join_ms_nocache", ms_nc},
                          {"join_ms_cache", ms_wc}}});
}

void RegisterAll() {
  for (const char* ds :
       {"enron", "gowalla", "road", "watdiv", "dbpedia"}) {
    benchmark::RegisterBenchmark(
        (std::string("table7/") + ds).c_str(),
        [ds](benchmark::State& s) { BM_WriteCache(s, ds); })
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
