// Figure 12 — "Performance Comparison on all datasets": average query time
// for VF3, CFL-Match (CPU wall time, clean-room reimplementations), GpSM,
// GunrockSM, GSI and GSI-opt (simulated device time) on every dataset.
// CPU baselines are cut off at a timeout like the paper's 100s bar cap.
//
// `--json <path>` writes one record per dataset (config "dataset=<name>")
// with the simulated columns only: p50 and p99 both hold GSI-opt's mean
// ms; extras gpsm_ms, gunrock_ms, gsi_ms and gsi_opt_ms. The CPU columns
// are host wall time and are not recorded.

#include "baselines/cpu_matcher.h"
#include "baselines/edge_candidates.h"
#include "bench_common.h"

namespace gsi::bench {
namespace {

TableCollector& Table() {
  static auto& t = *new TableCollector(
      "Figure 12: Performance comparison on all datasets "
      "(avg query time, ms; CPU engines: wall time, GPU engines: simulated)",
      {"Dataset", "VF3", "CFL-Match", "GpSM", "GunrockSM", "GSI",
       "GSI-opt"});
  return t;
}

double CpuTimeoutMs() {
  const char* v = std::getenv("GSI_BENCH_CPU_TIMEOUT_MS");
  return v ? std::atof(v) : 3000.0;
}

std::string CpuCell(CpuAlgorithm algo, const Graph& g,
                    const std::vector<Graph>& queries) {
  CpuMatcherOptions opts;
  opts.timeout_ms = CpuTimeoutMs();
  double sum = 0;
  size_t ok = 0;
  bool timed_out = false;
  for (const Graph& q : queries) {
    CpuMatchResult r = RunCpuMatcher(algo, g, q, opts);
    if (r.timed_out) {
      timed_out = true;
      break;
    }
    sum += r.wall_ms;
    ++ok;
  }
  if (timed_out || ok == 0) {
    return "> " + TablePrinter::FormatMs(CpuTimeoutMs());
  }
  return TablePrinter::FormatMs(sum / static_cast<double>(ok));
}

void BM_Overall(benchmark::State& state, const std::string& dataset) {
  const Dataset& d = GetDataset(dataset);
  const auto& queries =
      GetQueries(dataset, Env().query_vertices, 0, Env().queries);

  std::string vf3;
  std::string cfl;
  double gpsm_ms = 0;
  double gsm_ms = 0;
  double gsi_ms = 0;
  double opt_ms = 0;
  for (auto _ : state) {
    vf3 = CpuCell(CpuAlgorithm::kVf2, d.graph, queries);
    cfl = CpuCell(CpuAlgorithm::kCflMatch, d.graph, queries);

    EdgeJoinMatcher gpsm = MakeGpsmMatcher(d.graph);
    Aggregate a = RunQueries(gpsm, queries);
    gpsm_ms = a.ok ? a.sum_ms / a.ok : 0;

    EdgeJoinMatcher gsm = MakeGunrockSmMatcher(d.graph);
    a = RunQueries(gsm, queries);
    gsm_ms = a.ok ? a.sum_ms / a.ok : 0;

    // GSI runs go through the concurrent batch engine (simulated per-query
    // costs are identical to sequential Find; host wall time shrinks).
    a = RunGsiBatch(d.graph, DefaultGsiOptions(), queries);
    gsi_ms = a.ok ? a.sum_ms / a.ok : 0;

    a = RunGsiBatch(d.graph, GsiOptOptions(), queries);
    opt_ms = a.ok ? a.sum_ms / a.ok : 0;

    state.SetIterationTime(std::max(1e-9, (gsi_ms + opt_ms) / 1000.0));
  }
  state.counters["gpsm_ms"] = gpsm_ms;
  state.counters["gunrock_ms"] = gsm_ms;
  state.counters["gsi_ms"] = gsi_ms;
  state.counters["gsi_opt_ms"] = opt_ms;
  Table().AddRow({dataset, vf3, cfl, TablePrinter::FormatMs(gpsm_ms),
                  TablePrinter::FormatMs(gsm_ms),
                  TablePrinter::FormatMs(gsi_ms),
                  TablePrinter::FormatMs(opt_ms)});
  RecordJson({"fig12_overall",
              "dataset=" + dataset,
              /*qps=*/0,
              /*p50_ms=*/opt_ms,
              /*p99_ms=*/opt_ms,
              /*extras=*/{{"gpsm_ms", gpsm_ms},
                          {"gunrock_ms", gsm_ms},
                          {"gsi_ms", gsi_ms},
                          {"gsi_opt_ms", opt_ms}}});
}

void RegisterAll() {
  for (const char* ds :
       {"enron", "gowalla", "road", "watdiv", "dbpedia"}) {
    benchmark::RegisterBenchmark(
        (std::string("fig12/") + ds).c_str(),
        [ds](benchmark::State& s) { BM_Overall(s, ds); })
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
