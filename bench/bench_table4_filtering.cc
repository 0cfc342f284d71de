// Table IV — "Performance of different filtering strategies": minimum
// candidate-set size and filtering time for the GpSM, GunrockSM and GSI
// filters on every dataset.
//
// `--json <path>` writes one record per dataset and strategy (config
// "dataset=<name>,strategy=<GpSM|GunrockSM|GSI>"): p50 and p99 both hold
// the mean simulated filter ms per query; extras min_c (the mean minimum
// candidate-set size) and filter_ms.

#include "bench_common.h"
#include "gsi/filter.h"

namespace gsi::bench {
namespace {

TableCollector& Table() {
  static auto& t = *new TableCollector(
      "Table IV: Performance of different filtering strategies",
      {"Dataset", "Strategy", "min |C(u)| (avg)", "Time (ms, simulated)"});
  return t;
}

struct StrategyCase {
  const char* name;
  FilterStrategy strategy;
};

constexpr StrategyCase kStrategies[] = {
    {"GpSM", FilterStrategy::kLabelDegreeNeighbor},
    {"GunrockSM", FilterStrategy::kLabelDegree},
    {"GSI", FilterStrategy::kSignature},
};

void BM_Filtering(benchmark::State& state, const std::string& dataset,
                  const StrategyCase& sc) {
  const Dataset& d = GetDataset(dataset);
  const auto& queries =
      GetQueries(dataset, Env().query_vertices, 0, Env().queries);

  gpusim::Device dev;
  FilterOptions fo;
  fo.strategy = sc.strategy;
  fo.build_bitmaps = false;
  FilterContext ctx(dev, d.graph, fo);

  double min_c_sum = 0;
  double sim_ms = 0;
  for (auto _ : state) {
    min_c_sum = 0;
    gpusim::MemStats before = dev.stats();
    for (const Graph& q : queries) {
      Result<FilterResult> r = ctx.Filter(q);
      GSI_CHECK(r.ok());
      min_c_sum += static_cast<double>(r->min_candidate_size);
    }
    sim_ms = (dev.stats() - before).SimulatedMs(dev.config());
    state.SetIterationTime(sim_ms / 1000.0);
  }
  double avg_min_c = min_c_sum / static_cast<double>(queries.size());
  double avg_ms = sim_ms / static_cast<double>(queries.size());
  state.counters["min_C"] = avg_min_c;
  state.counters["sim_ms"] = avg_ms;
  Table().AddRow({dataset, sc.name,
                  TablePrinter::FormatCount(
                      static_cast<uint64_t>(avg_min_c + 0.5)),
                  TablePrinter::FormatMs(avg_ms)});
  RecordJson({"table4_filtering",
              "dataset=" + dataset + ",strategy=" + sc.name,
              /*qps=*/0,
              /*p50_ms=*/avg_ms,
              /*p99_ms=*/avg_ms,
              /*extras=*/{{"min_c", avg_min_c}, {"filter_ms", avg_ms}}});
}

void RegisterAll() {
  for (const char* ds :
       {"enron", "gowalla", "road", "watdiv", "dbpedia"}) {
    for (const StrategyCase& sc : kStrategies) {
      benchmark::RegisterBenchmark(
          (std::string("table4/") + ds + "/" + sc.name).c_str(),
          [ds, &sc](benchmark::State& s) { BM_Filtering(s, ds, sc); })
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
