// Table X — "Tuning of W3": join time on enron as the intra-block chunk
// granularity sweeps 192..320 (W1 fixed at 4096).
//
// `--json <path>` writes one record per W3 (config "W3=<value>"): p50 and
// p99 both hold the mean simulated join ms; extra join_ms.

#include "bench_common.h"

namespace gsi::bench {
namespace {

TableCollector& Table() {
  static auto& t = *new TableCollector(
      "Table X: Tuning of W3 (enron, W1=4096)",
      {"W3", "Join time (ms, simulated)"});
  return t;
}

void BM_TuneW3(benchmark::State& state, uint32_t w3) {
  const auto& queries =
      GetQueries("enron", Env().query_vertices, 0, Env().queries);
  GsiOptions o = GsiOptOptions();
  o.join.w1 = 4096;
  o.join.w3 = w3;

  Aggregate agg;
  for (auto _ : state) {
    agg = RunGsi("enron", o, queries);
    state.SetIterationTime(std::max(1e-9, agg.sum_join_ms / 1000.0));
  }
  double ms = agg.ok ? agg.sum_join_ms / agg.ok : 0;
  state.counters["join_ms"] = ms;
  Table().AddRow({std::to_string(w3), TablePrinter::FormatMs(ms)});
  RecordJson({"table10_tune_w3", "W3=" + std::to_string(w3), /*qps=*/0,
              /*p50_ms=*/ms, /*p99_ms=*/ms, /*extras=*/{{"join_ms", ms}}});
}

void RegisterAll() {
  for (uint32_t w3 : {192u, 224u, 256u, 288u, 320u}) {
    benchmark::RegisterBenchmark(
        ("table10/W3=" + std::to_string(w3)).c_str(),
        [w3](benchmark::State& s) { BM_TuneW3(s, w3); })
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
