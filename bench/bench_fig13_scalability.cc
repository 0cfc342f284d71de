// Figure 13 — "Scalability Test on WatDiv Benchmark": average query time
// of GpSM, GunrockSM, GSI and GSI-opt on a WatDiv-like series whose size
// grows linearly (the paper's watdiv10M..watdiv100M, scaled down).
//
// `--json <path>` writes one record per step (config "step=<n>"): p50 and
// p99 both hold GSI-opt's mean simulated ms; extras num_vertices,
// num_edges, gpsm_ms, gunrock_ms, gsi_ms and gsi_opt_ms.

#include "baselines/edge_candidates.h"
#include "bench_common.h"
#include "graph/query_generator.h"

namespace gsi::bench {
namespace {

TableCollector& Table() {
  static auto& t = *new TableCollector(
      "Figure 13: Scalability on the WatDiv series "
      "(avg query time, ms simulated)",
      {"Dataset", "|V|", "|E|", "GpSM", "GunrockSM", "GSI", "GSI-opt"});
  return t;
}

size_t BaseVertices() {
  // 10 steps of the paper's 10M..100M, scaled by GSI_BENCH_SCALE/6 so the
  // default configuration sweeps 20K..200K vertices.
  return static_cast<size_t>(20000.0 * Env().scale / 6.0);
}

void BM_Scalability(benchmark::State& state, size_t step) {
  static auto& cache = *new std::map<size_t, Dataset>();
  auto it = cache.find(step);
  if (it == cache.end()) {
    Result<Dataset> d = MakeWatDivLike(BaseVertices() * step);
    GSI_CHECK(d.ok());
    it = cache.emplace(step, std::move(d.value())).first;
  }
  const Graph& g = it->second.graph;
  QueryGenConfig qc;
  qc.num_vertices = Env().query_vertices;
  std::vector<Graph> queries =
      GenerateQuerySet(g, qc, Env().queries, 4242);

  double gpsm_ms = 0;
  double gsm_ms = 0;
  double gsi_ms = 0;
  double opt_ms = 0;
  for (auto _ : state) {
    EdgeJoinMatcher gpsm = MakeGpsmMatcher(g);
    Aggregate a = RunQueries(gpsm, queries);
    gpsm_ms = a.ok ? a.sum_ms / a.ok : 0;

    EdgeJoinMatcher gsm = MakeGunrockSmMatcher(g);
    a = RunQueries(gsm, queries);
    gsm_ms = a.ok ? a.sum_ms / a.ok : 0;

    // GSI runs go through the concurrent batch engine (simulated per-query
    // costs are identical to sequential Find; host wall time shrinks).
    a = RunGsiBatch(g, DefaultGsiOptions(), queries);
    gsi_ms = a.ok ? a.sum_ms / a.ok : 0;

    a = RunGsiBatch(g, GsiOptOptions(), queries);
    opt_ms = a.ok ? a.sum_ms / a.ok : 0;

    state.SetIterationTime(std::max(1e-9, (gsi_ms + opt_ms) / 1000.0));
  }
  state.counters["gpsm_ms"] = gpsm_ms;
  state.counters["gunrock_ms"] = gsm_ms;
  state.counters["gsi_ms"] = gsi_ms;
  state.counters["gsi_opt_ms"] = opt_ms;
  Table().AddRow({it->second.name,
                  TablePrinter::FormatCount(g.num_vertices()),
                  TablePrinter::FormatCount(g.num_edges()),
                  TablePrinter::FormatMs(gpsm_ms),
                  TablePrinter::FormatMs(gsm_ms),
                  TablePrinter::FormatMs(gsi_ms),
                  TablePrinter::FormatMs(opt_ms)});
  RecordJson({"fig13_scalability",
              "step=" + std::to_string(step),
              /*qps=*/0,
              /*p50_ms=*/opt_ms,
              /*p99_ms=*/opt_ms,
              /*extras=*/{{"num_vertices",
                           static_cast<double>(g.num_vertices())},
                          {"num_edges", static_cast<double>(g.num_edges())},
                          {"gpsm_ms", gpsm_ms},
                          {"gunrock_ms", gsm_ms},
                          {"gsi_ms", gsi_ms},
                          {"gsi_opt_ms", opt_ms}}});
}

void RegisterAll() {
  for (size_t step = 1; step <= 10; ++step) {
    benchmark::RegisterBenchmark(
        ("fig13/step=" + std::to_string(step)).c_str(),
        [step](benchmark::State& s) { BM_Scalability(s, step); })
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
