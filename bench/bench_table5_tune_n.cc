// Table V — "Tuning of N": pruning power (minimum candidate-set size on
// gowalla) as the signature width N grows from 64 to 512 bits.
//
// `--json <path>` writes one record per width (config "N=<bits>"): p50 and
// p99 both hold the mean simulated filter ms per query; extras min_c (the
// mean minimum candidate-set size) and filter_ms.

#include "bench_common.h"
#include "gsi/filter.h"

namespace gsi::bench {
namespace {

TableCollector& Table() {
  static auto& t = *new TableCollector(
      "Table V: Tuning of N (gowalla)",
      {"N (bits)", "min |C(u)| (avg)", "Filter time (ms, simulated)"});
  return t;
}

void BM_TuneN(benchmark::State& state, int nbits) {
  const Dataset& d = GetDataset("gowalla");
  const auto& queries =
      GetQueries("gowalla", Env().query_vertices, 0, Env().queries);

  gpusim::Device dev;
  FilterOptions fo;
  fo.signature_bits = nbits;
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
  double avg = min_c_sum / static_cast<double>(queries.size());
  double avg_ms = sim_ms / static_cast<double>(queries.size());
  state.counters["min_C"] = avg;
  Table().AddRow({std::to_string(nbits),
                  TablePrinter::FormatCount(static_cast<uint64_t>(avg + 0.5)),
                  TablePrinter::FormatMs(avg_ms)});
  RecordJson({"table5_tune_n", "N=" + std::to_string(nbits), /*qps=*/0,
              /*p50_ms=*/avg_ms, /*p99_ms=*/avg_ms,
              /*extras=*/{{"min_c", avg}, {"filter_ms", avg_ms}}});
}

void RegisterAll() {
  for (int nbits : {64, 128, 192, 256, 320, 384, 448, 512}) {
    benchmark::RegisterBenchmark(
        ("table5/N=" + std::to_string(nbits)).c_str(),
        [nbits](benchmark::State& s) { BM_TuneN(s, nbits); })
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
