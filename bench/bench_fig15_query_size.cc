// Figure 15 — "Vary the number of edges and vertices in Q": GSI-opt query
// time on a gowalla-like graph while (a) |V(Q)| is fixed and |E(Q)| grows,
// and (b) |E(Q)| = 2|V(Q)| and |V(Q)| grows.
//
// The |E(Q)| sweep needs queries denser than trees, so the data graph
// carries planted near-clique communities (real gowalla is strongly
// clustered; plain preferential attachment is not) and walks start inside
// them.
//
// `--json <path>` writes one record per sweep point (config "edges/E=<n>"
// or "vertices/V=<n>"): p50 and p99 both hold GSI-opt's mean simulated ms;
// extras edges_achieved (the queries' mean |E(Q)|) and ms.

#include "bench_common.h"
#include "graph/generators.h"
#include "graph/labeler.h"
#include "graph/query_generator.h"

namespace gsi::bench {
namespace {

TableCollector& Table() {
  static auto& t = *new TableCollector(
      "Figure 15: Vary query size (gowalla-like with communities, GSI-opt, "
      "avg ms simulated)",
      {"Sweep", "|V(Q)|", "|E(Q)| target", "|E(Q)| achieved (avg)",
       "Query time (ms)"});
  return t;
}

struct CommunityGraph {
  Graph graph;
  std::vector<VertexId> seeds;
};

const CommunityGraph& GetGraph() {
  static auto& cg = *new CommunityGraph([] {
    size_t n = static_cast<size_t>(25000 * Env().scale);
    Rng rng(103);
    std::vector<RawEdge> edges =
        GenerateScaleFree(n, 8, rng, /*num_hubs=*/3, /*hub_fraction=*/0.07,
                          /*triad_probability=*/0.35);
    std::vector<VertexId> seeds =
        PlantCommunities(n, /*count=*/n / 1000, /*size=*/32, edges, rng);
    LabelConfig lc;
    lc.num_vertex_labels = 50;
    lc.num_edge_labels = 10;
    lc.seed = 13;
    Result<Graph> g = AssignLabels(n, edges, lc);
    GSI_CHECK(g.ok());
    return CommunityGraph{std::move(g.value()), std::move(seeds)};
  }());
  return cg;
}

std::vector<Graph> CommunityQueries(size_t nv, size_t ne, size_t count) {
  const CommunityGraph& cg = GetGraph();
  Rng rng(4242 + nv * 131);  // same walks for every |E(Q)| target
  std::vector<Graph> out;
  size_t attempts = 0;
  while (out.size() < count && attempts < 64 * count) {
    ++attempts;
    QueryGenConfig qc;
    qc.num_vertices = nv;
    qc.num_edges = ne;
    qc.revisit_probability = 0.8;
    qc.start_vertex = cg.seeds[rng.NextBounded(cg.seeds.size())];
    Result<Graph> q = GenerateRandomWalkQuery(cg.graph, qc, rng);
    if (q.ok()) out.push_back(std::move(q.value()));
  }
  return out;
}

void BM_QuerySize(benchmark::State& state, bool vary_edges, size_t nv,
                  size_t ne) {
  std::vector<Graph> queries = CommunityQueries(nv, ne, Env().queries);
  if (queries.empty()) return;
  size_t achieved = 0;
  for (const Graph& q : queries) achieved += q.num_edges();

  double ms = 0;
  for (auto _ : state) {
    GsiMatcher m(GetGraph().graph, GsiOptOptions());
    Aggregate a = RunQueries(m, queries);
    ms = a.ok ? a.sum_ms / a.ok : 0;
    state.SetIterationTime(std::max(1e-9, ms / 1000.0));
  }
  state.counters["ms"] = ms;
  const double edges_achieved =
      static_cast<double>(achieved) / static_cast<double>(queries.size());
  char avg_e[32];
  std::snprintf(avg_e, sizeof(avg_e), "%.1f", edges_achieved);
  Table().AddRow({vary_edges ? "edge num" : "vertex num",
                  std::to_string(nv), std::to_string(ne), avg_e,
                  TablePrinter::FormatMs(ms)});
  RecordJson({"fig15_query_size",
              vary_edges ? "edges/E=" + std::to_string(ne)
                         : "vertices/V=" + std::to_string(nv),
              /*qps=*/0, /*p50_ms=*/ms, /*p99_ms=*/ms,
              /*extras=*/{{"edges_achieved", edges_achieved}, {"ms", ms}}});
}

void RegisterAll() {
  // (a) |V(Q)| fixed at the default, |E(Q)| sweeps (paper: 12..26 at 12
  // vertices).
  size_t nv = Env().query_vertices;
  for (size_t ne = nv; ne <= 3 * nv; ne += 2) {
    benchmark::RegisterBenchmark(
        ("fig15/edges/E=" + std::to_string(ne)).c_str(),
        [nv, ne](benchmark::State& s) { BM_QuerySize(s, true, nv, ne); })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  // (b) |E(Q)| = 2|V(Q)|, |V(Q)| sweeps (paper: 8..15).
  for (size_t v = 4; v <= 11; ++v) {
    benchmark::RegisterBenchmark(
        ("fig15/vertices/V=" + std::to_string(v)).c_str(),
        [v](benchmark::State& s) { BM_QuerySize(s, false, v, 2 * v); })
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
