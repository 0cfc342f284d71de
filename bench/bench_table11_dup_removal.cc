// Table XI — "Performance of duplicate removal method": join-phase GLD and
// query time with duplicates vs with in-block duplicate removal (on GSI
// with load balance, as in the paper's "+DR over +LB" comparison).
//
// `--json <path>` writes one record per dataset (config "dataset=<name>"):
// p50 and p99 both hold the mean simulated join ms with removal, the perf
// gate's key; extras gld_dups, gld_removal and join_ms_dups.

#include "bench_common.h"

namespace gsi::bench {
namespace {

TableCollector& Table() {
  static auto& t = *new TableCollector(
      "Table XI: Performance of duplicate removal method",
      {"Dataset", "GLD with dups", "GLD removal", "GLD drop",
       "Time with dups (ms)", "Time removal (ms)", "Time drop"});
  return t;
}

void BM_DupRemoval(benchmark::State& state, const std::string& dataset) {
  const auto& queries =
      GetQueries(dataset, Env().query_vertices, 0, Env().queries);
  GsiOptions with_dups = DefaultGsiOptions();
  with_dups.join.load_balance = true;
  GsiOptions removal = with_dups;
  removal.join.duplicate_removal = true;

  Aggregate a_dups;
  Aggregate a_rm;
  for (auto _ : state) {
    a_dups = RunGsi(dataset, with_dups, queries);
    a_rm = RunGsi(dataset, removal, queries);
    state.SetIterationTime(std::max(
        1e-9, (a_dups.sum_join_ms + a_rm.sum_join_ms) / 1000.0));
  }
  double ms0 = a_dups.ok ? a_dups.sum_join_ms / a_dups.ok : 0;
  double ms1 = a_rm.ok ? a_rm.sum_join_ms / a_rm.ok : 0;
  state.counters["gld_dups"] = static_cast<double>(a_dups.gld);
  state.counters["gld_removal"] = static_cast<double>(a_rm.gld);
  double gld_drop = a_dups.gld
                        ? 1.0 - static_cast<double>(a_rm.gld) /
                                    static_cast<double>(a_dups.gld)
                        : 0.0;
  double t_drop = ms0 > 0 ? 1.0 - ms1 / ms0 : 0.0;
  Table().AddRow({dataset, TablePrinter::FormatCount(a_dups.gld),
                  TablePrinter::FormatCount(a_rm.gld),
                  TablePrinter::FormatPercent(gld_drop),
                  TablePrinter::FormatMs(ms0), TablePrinter::FormatMs(ms1),
                  TablePrinter::FormatPercent(t_drop)});
  RecordJson({"table11_dup_removal",
              "dataset=" + dataset,
              /*qps=*/0,
              /*p50_ms=*/ms1,
              /*p99_ms=*/ms1,
              /*extras=*/{{"gld_dups", static_cast<double>(a_dups.gld)},
                          {"gld_removal", static_cast<double>(a_rm.gld)},
                          {"join_ms_dups", ms0}}});
}

void RegisterAll() {
  for (const char* ds :
       {"enron", "gowalla", "road", "watdiv", "dbpedia"}) {
    benchmark::RegisterBenchmark(
        (std::string("table11/") + ds).c_str(),
        [ds](benchmark::State& s) { BM_DupRemoval(s, ds); })
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
