// Table VIII — "Performance of optimizations": query time for GSI, +LB
// (4-layer load balance) and +DR (in-block duplicate removal), cumulative.
//
// `--json <path>` writes one record per dataset (config "dataset=<name>"):
// p50 and p99 both hold the mean simulated join ms of +DR; extras gsi_ms,
// lb_ms and dr_ms.

#include "bench_common.h"

namespace gsi::bench {
namespace {

TableCollector& Table() {
  static auto& t = *new TableCollector(
      "Table VIII: Performance of optimizations",
      {"Dataset", "GSI (ms)", "+LB (ms)", "LB speedup", "+DR (ms)",
       "DR speedup"});
  return t;
}

void BM_Optimizations(benchmark::State& state, const std::string& dataset) {
  const auto& queries =
      GetQueries(dataset, Env().query_vertices, 0, Env().queries);
  GsiOptions base = DefaultGsiOptions();
  GsiOptions lb = base;
  lb.join.load_balance = true;
  GsiOptions dr = lb;
  dr.join.duplicate_removal = true;

  Aggregate a_base;
  Aggregate a_lb;
  Aggregate a_dr;
  for (auto _ : state) {
    a_base = RunGsi(dataset, base, queries);
    a_lb = RunGsi(dataset, lb, queries);
    a_dr = RunGsi(dataset, dr, queries);
    state.SetIterationTime(std::max(
        1e-9,
        (a_base.sum_join_ms + a_lb.sum_join_ms + a_dr.sum_join_ms) / 1000.0));
  }
  double ms0 = a_base.ok ? a_base.sum_join_ms / a_base.ok : 0;
  double ms1 = a_lb.ok ? a_lb.sum_join_ms / a_lb.ok : 0;
  double ms2 = a_dr.ok ? a_dr.sum_join_ms / a_dr.ok : 0;
  state.counters["gsi_ms"] = ms0;
  state.counters["lb_ms"] = ms1;
  state.counters["dr_ms"] = ms2;
  Table().AddRow(
      {dataset, TablePrinter::FormatMs(ms0), TablePrinter::FormatMs(ms1),
       ms1 > 0 ? TablePrinter::FormatSpeedup(ms0 / ms1) : "-",
       TablePrinter::FormatMs(ms2),
       ms2 > 0 ? TablePrinter::FormatSpeedup(ms1 / ms2) : "-"});
  RecordJson({"table8_optimizations",
              "dataset=" + dataset,
              /*qps=*/0,
              /*p50_ms=*/ms2,
              /*p99_ms=*/ms2,
              /*extras=*/{{"gsi_ms", ms0}, {"lb_ms", ms1}, {"dr_ms", ms2}}});
}

void RegisterAll() {
  for (const char* ds :
       {"enron", "gowalla", "road", "watdiv", "dbpedia"}) {
    benchmark::RegisterBenchmark(
        (std::string("table8/") + ds).c_str(),
        [ds](benchmark::State& s) { BM_Optimizations(s, ds); })
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
