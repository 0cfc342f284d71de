// Figure 14 — "Vary the number of vertex and edge labels": GSI-opt query
// time on a gowalla-like graph as |L_V| (then |L_E|) sweeps, the other
// alphabet held at its default.
//
// `--json <path>` writes one record per sweep point (config "LV=<count>" or
// "LE=<count>"): p50 and p99 both hold GSI-opt's mean simulated ms; extra
// ms.

#include "bench_common.h"
#include "graph/generators.h"
#include "graph/labeler.h"
#include "graph/query_generator.h"

namespace gsi::bench {
namespace {

TableCollector& Table() {
  static auto& t = *new TableCollector(
      "Figure 14: Vary the number of vertex and edge labels "
      "(gowalla-like, GSI-opt, avg ms simulated)",
      {"Varying", "Label count", "Query time (ms)"});
  return t;
}

Graph MakeGowallaLike(size_t num_vlabels, size_t num_elabels) {
  size_t n = static_cast<size_t>(25000 * Env().scale);
  Rng rng(103);
  std::vector<RawEdge> edges = GenerateScaleFree(n, 8, rng);
  LabelConfig lc;
  lc.num_vertex_labels = num_vlabels;
  lc.num_edge_labels = num_elabels;
  lc.seed = 13;
  Result<Graph> g = AssignLabels(n, edges, lc);
  GSI_CHECK(g.ok());
  return std::move(g.value());
}

void BM_VaryLabels(benchmark::State& state, bool vary_vertex,
                   size_t count) {
  // Default alphabets follow the benchmark dataset (LV=50, LE=10 at this
  // scale); the paper's default was 100/100 at 8x larger size.
  Graph g = vary_vertex ? MakeGowallaLike(count, 10)
                        : MakeGowallaLike(50, count);
  QueryGenConfig qc;
  qc.num_vertices = Env().query_vertices;
  std::vector<Graph> queries =
      GenerateQuerySet(g, qc, Env().queries, 4242);

  double ms = 0;
  for (auto _ : state) {
    GsiMatcher m(g, GsiOptOptions());
    Aggregate a = RunQueries(m, queries);
    ms = a.ok ? a.sum_ms / a.ok : 0;
    state.SetIterationTime(std::max(1e-9, ms / 1000.0));
  }
  state.counters["ms"] = ms;
  Table().AddRow({vary_vertex ? "vertex labels" : "edge labels",
                  std::to_string(count), TablePrinter::FormatMs(ms)});
  RecordJson({"fig14_labels",
              (vary_vertex ? "LV=" : "LE=") + std::to_string(count),
              /*qps=*/0, /*p50_ms=*/ms, /*p99_ms=*/ms,
              /*extras=*/{{"ms", ms}}});
}

void RegisterAll() {
  for (size_t c : {5, 10, 20, 40, 80}) {
    benchmark::RegisterBenchmark(
        ("fig14/LV=" + std::to_string(c)).c_str(),
        [c](benchmark::State& s) { BM_VaryLabels(s, true, c); })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  for (size_t c : {2, 5, 10, 20, 40}) {
    benchmark::RegisterBenchmark(
        ("fig14/LE=" + std::to_string(c)).c_str(),
        [c](benchmark::State& s) { BM_VaryLabels(s, false, c); })
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
