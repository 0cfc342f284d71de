// Table IX — "Tuning of W1": join time on enron as the layer-1 threshold
// of the load-balance scheme sweeps 2048..6144 (W3 fixed at 256).
//
// `--json <path>` writes one record per W1 (config "W1=<value>"): p50 and
// p99 both hold the mean simulated join ms; extra join_ms.

#include "bench_common.h"

namespace gsi::bench {
namespace {

/// max |N(v, l)| over the data graph: the largest first-edge bound any
/// join row can have. Every W1 at or above it leaves Layer 1 empty, so
/// those W1 print the same time.
size_t LargestLabeledNeighborhood(const Graph& g) {
  size_t best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::span<const Neighbor> nbrs = g.neighbors(v);  // sorted by label
    for (size_t i = 0; i < nbrs.size();) {
      size_t j = i;
      while (j < nbrs.size() && nbrs[j].elabel == nbrs[i].elabel) ++j;
      best = std::max(best, j - i);
      i = j;
    }
  }
  return best;
}

TableCollector& Table() {
  static auto& t = *new TableCollector(
      "Table IX: Tuning of W1 (enron, W3=256; sweep extended below the "
      "paper's 2048..6144; largest |N(v, l)| at this scale: " +
          std::to_string(
              LargestLabeledNeighborhood(GetDataset("enron").graph)) +
          ", so every W1 at or above it times the same)",
      {"W1", "Join time (ms, simulated)"});
  return t;
}

void BM_TuneW1(benchmark::State& state, uint32_t w1) {
  const auto& queries =
      GetQueries("enron", Env().query_vertices, 0, Env().queries);
  GsiOptions o = GsiOptOptions();
  o.join.w1 = w1;
  o.join.w3 = 256;

  Aggregate agg;
  for (auto _ : state) {
    agg = RunGsi("enron", o, queries);
    state.SetIterationTime(std::max(1e-9, agg.sum_join_ms / 1000.0));
  }
  double ms = agg.ok ? agg.sum_join_ms / agg.ok : 0;
  state.counters["join_ms"] = ms;
  Table().AddRow({std::to_string(w1), TablePrinter::FormatMs(ms)});
  RecordJson({"table9_tune_w1", "W1=" + std::to_string(w1), /*qps=*/0,
              /*p50_ms=*/ms, /*p99_ms=*/ms, /*extras=*/{{"join_ms", ms}}});
}

void RegisterAll() {
  for (uint32_t w1 : {1088u, 1536u, 2048u, 4096u, 6144u}) {
    benchmark::RegisterBenchmark(
        ("table9/W1=" + std::to_string(w1)).c_str(),
        [w1](benchmark::State& s) { BM_TuneW1(s, w1); })
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
