#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <utility>
#include <unordered_set>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/labeler.h"
#include "graph/query_generator.h"
#include "test_util.h"

namespace gsi {
namespace {

TEST(GraphCreate, RejectsBadInput) {
  EXPECT_FALSE(Graph::Create(2, {0}, {}).ok());  // label size mismatch
  EXPECT_FALSE(
      Graph::Create(2, {0, 0}, {EdgeRecord{0, 2, 0}}).ok());  // range
  EXPECT_FALSE(
      Graph::Create(2, {0, 0}, {EdgeRecord{1, 1, 0}}).ok());  // self loop
}

TEST(GraphCreate, DedupsExactDuplicatesKeepsParallelLabels) {
  Result<Graph> g = Graph::Create(
      2, {0, 0},
      {EdgeRecord{0, 1, 5}, EdgeRecord{1, 0, 5}, EdgeRecord{0, 1, 6}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);  // labels 5 and 6
  EXPECT_TRUE(g->HasEdge(0, 1, 5));
  EXPECT_TRUE(g->HasEdge(1, 0, 6));
  EXPECT_FALSE(g->HasEdge(0, 1, 7));
}

TEST(GraphAccessors, NeighborsSortedByLabelThenId) {
  GraphBuilder b;
  for (int i = 0; i < 5; ++i) b.AddVertex(0);
  b.AddEdge(0, 3, 2);
  b.AddEdge(0, 1, 2);
  b.AddEdge(0, 4, 1);
  b.AddEdge(0, 2, 3);
  Graph g = std::move(b).Build().value();
  auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_EQ(nbrs[0], (Neighbor{4, 1}));
  EXPECT_EQ(nbrs[1], (Neighbor{1, 2}));
  EXPECT_EQ(nbrs[2], (Neighbor{3, 2}));
  EXPECT_EQ(nbrs[3], (Neighbor{2, 3}));
  auto with2 = g.NeighborsWithLabel(0, 2);
  ASSERT_EQ(with2.size(), 2u);
  EXPECT_EQ(with2[0].v, 1u);
  EXPECT_EQ(with2[1].v, 3u);
  EXPECT_TRUE(g.NeighborsWithLabel(0, 9).empty());
}

TEST(GraphStats, LabelFrequencies) {
  Graph g = ::gsi::testing::RandomGraph(500, 3, 7, 9, 1);
  size_t vtotal = 0;
  for (Label l = 0; l < 7; ++l) vtotal += g.VertexLabelFrequency(l);
  EXPECT_EQ(vtotal, g.num_vertices());
  size_t etotal = 0;
  for (Label l : g.edge_labels()) etotal += g.EdgeLabelFrequency(l);
  EXPECT_EQ(etotal, g.num_edges());
  EXPECT_EQ(g.EdgeLabelFrequency(12345), 0u);
}

TEST(GraphConnectivity, DetectsComponents) {
  GraphBuilder b;
  for (int i = 0; i < 4; ++i) b.AddVertex(0);
  b.AddEdge(0, 1, 0);
  b.AddEdge(2, 3, 0);
  Graph g = std::move(b).Build().value();
  EXPECT_FALSE(g.IsConnected());

  GraphBuilder b2;
  for (int i = 0; i < 4; ++i) b2.AddVertex(0);
  b2.AddEdge(0, 1, 0);
  b2.AddEdge(1, 2, 0);
  b2.AddEdge(2, 3, 0);
  EXPECT_TRUE(std::move(b2).Build().value().IsConnected());
}

TEST(GraphIo, RoundTripsThroughText) {
  Graph g = ::gsi::testing::RandomGraph(80, 3, 4, 5, 2);
  std::string text = GraphToText(g);
  Result<Graph> back = ParseGraphText(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_vertices(), g.num_vertices());
  EXPECT_EQ(back->num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(back->vertex_label(v), g.vertex_label(v));
    ASSERT_EQ(back->degree(v), g.degree(v));
  }
}

TEST(GraphIo, FileRoundTrip) {
  Graph g = ::gsi::testing::RandomGraph(60, 3, 3, 3, 21);
  std::string path = ::testing::TempDir() + "/gsi_io_test.graph";
  ASSERT_TRUE(SaveGraphText(g, path).ok());
  Result<Graph> back = LoadGraphText(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(GraphToText(back.value()), GraphToText(g));
  EXPECT_FALSE(LoadGraphText("/nonexistent/path.graph").ok());
}

TEST(Datasets, DeterministicAcrossCalls) {
  Result<Dataset> a = MakeDataset("enron", 0.05);
  Result<Dataset> b = MakeDataset("enron", 0.05);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(GraphToText(a->graph), GraphToText(b->graph));
}

TEST(GraphIo, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseGraphText("nonsense").ok());
  EXPECT_FALSE(ParseGraphText("t 2 1\nv 0 0\nv 5 0\ne 0 1 0\n").ok());
}

TEST(GraphIo, ParseRejectsDuplicateVertexLine) {
  // The duplicate used to be accepted silently, leaving vertex 1 labeled
  // kInvalidLabel.
  Result<Graph> g = ParseGraphText("t 2 1\nv 0 0\nv 0 1\ne 0 1 0\n");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphIo, ParseRejectsTrailingContent) {
  // Anything after the last declared edge used to be ignored.
  EXPECT_FALSE(ParseGraphText("t 2 1\nv 0 0\nv 1 0\ne 0 1 0\ne 1 0 1\n").ok());
  EXPECT_FALSE(ParseGraphText("t 2 1\nv 0 0\nv 1 0\ne 0 1 0\ngarbage\n").ok());
  // Trailing whitespace/newlines remain fine.
  EXPECT_TRUE(ParseGraphText("t 2 1\nv 0 0\nv 1 0\ne 0 1 0\n\n  \n").ok());
}

TEST(Generators, ErdosRenyiHasRequestedEdges) {
  Rng rng(3);
  auto edges = GenerateErdosRenyi(100, 300, rng);
  EXPECT_EQ(edges.size(), 300u);
  std::unordered_set<uint64_t> seen;
  for (const RawEdge& e : edges) {
    EXPECT_NE(e.src, e.dst);
    uint64_t key = (static_cast<uint64_t>(std::min(e.src, e.dst)) << 32) |
                   std::max(e.src, e.dst);
    EXPECT_TRUE(seen.insert(key).second) << "duplicate edge";
  }
}

TEST(Generators, ErdosRenyiCapsAtCompleteGraph) {
  Rng rng(4);
  auto edges = GenerateErdosRenyi(5, 1000, rng);
  EXPECT_EQ(edges.size(), 10u);
}

TEST(Generators, ScaleFreeIsSkewed) {
  Rng rng(5);
  auto edges = GenerateScaleFree(2000, 3, rng);
  auto deg = DegreesOf(2000, edges);
  size_t max_deg = *std::max_element(deg.begin(), deg.end());
  double avg =
      2.0 * edges.size() / static_cast<double>(deg.size());
  // Heavy tail: the max degree dwarfs the average.
  EXPECT_GT(static_cast<double>(max_deg), 8 * avg);
}

TEST(Generators, MeshHasUniformSmallDegrees) {
  auto edges = GenerateMesh(20, 30);
  EXPECT_EQ(edges.size(), 20u * 29 + 19u * 30);
  auto deg = DegreesOf(600, edges);
  EXPECT_EQ(*std::max_element(deg.begin(), deg.end()), 4u);
  EXPECT_EQ(*std::min_element(deg.begin(), deg.end()), 2u);
}

TEST(Labeler, PowerLawLabelsSkewed) {
  Rng rng(6);
  auto edges = GenerateScaleFree(3000, 3, rng);
  LabelConfig lc;
  lc.num_vertex_labels = 50;
  lc.num_edge_labels = 50;
  Result<Graph> g = AssignLabels(3000, edges, lc);
  ASSERT_TRUE(g.ok());
  // Most frequent vertex label much more common than the tail.
  size_t hi = 0;
  size_t lo = SIZE_MAX;
  for (Label l = 0; l < 50; ++l) {
    size_t f = g->VertexLabelFrequency(l);
    hi = std::max(hi, f);
    if (f > 0) lo = std::min(lo, f);
  }
  EXPECT_GT(hi, 8 * lo);
}

TEST(QueryGen, WalkQueriesAreConnectedAndEmbedded) {
  Graph data = ::gsi::testing::RandomGraph(400, 4, 5, 5, 7);
  QueryGenConfig qc;
  qc.num_vertices = 6;
  std::vector<Graph> qs = GenerateQuerySet(data, qc, 20, 9);
  ASSERT_EQ(qs.size(), 20u);
  for (const Graph& q : qs) {
    EXPECT_EQ(q.num_vertices(), 6u);
    EXPECT_TRUE(q.IsConnected());
    EXPECT_GE(q.num_edges(), 5u);
  }
}

TEST(QueryGen, DensifiesToRequestedEdgeCount) {
  // Dense data graph so the induced subgraph of 8 walked vertices really
  // contains extra edges to densify with.
  Graph data = ::gsi::testing::RandomGraph(100, 10, 2, 2, 8);
  QueryGenConfig qc;
  qc.num_vertices = 8;
  qc.num_edges = 14;
  Rng rng(10);
  size_t baseline_sum = 0;
  size_t densified_sum = 0;
  QueryGenConfig walk_only = qc;
  walk_only.num_edges = 0;
  Rng rng2(10);
  for (int i = 0; i < 10; ++i) {
    Result<Graph> q = GenerateRandomWalkQuery(data, qc, rng);
    Result<Graph> plain = GenerateRandomWalkQuery(data, walk_only, rng2);
    if (!q.ok() || !plain.ok()) continue;
    EXPECT_LE(q->num_edges(), 14u + 4u);  // never wildly overshoots
    densified_sum += q->num_edges();
    baseline_sum += plain.value().num_edges();
  }
  // Densification adds edges on average (identical walks by identical rng).
  EXPECT_GT(densified_sum, baseline_sum);
}

TEST(Generators, SuperHubsRaiseMaxDegree) {
  Rng rng_a(7);
  auto plain = GenerateScaleFree(20000, 4, rng_a);
  Rng rng_b(7);
  auto hubby = GenerateScaleFree(20000, 4, rng_b, /*num_hubs=*/2,
                                 /*hub_fraction=*/0.05);
  std::vector<size_t> plain_deg = DegreesOf(20000, plain);
  std::vector<size_t> hub_deg = DegreesOf(20000, hubby);
  size_t plain_max = *std::max_element(plain_deg.begin(), plain_deg.end());
  size_t hub_max = *std::max_element(hub_deg.begin(), hub_deg.end());
  EXPECT_GE(hub_max, 800u);  // ~5% of 20000 minus collisions
  EXPECT_GT(hub_max, 2 * plain_max);
}

TEST(Generators, HubReachesOneMinusExpOfItsFraction) {
  // A hub draws hub_fraction * n targets with replacement and drops
  // repeats, so it reaches about (1 - e^-f) * n vertices, not f * n: 890,
  // not 1350, at n = 1500 and f = 0.9.
  for (const auto& [n, f] : {std::pair<size_t, double>{1500, 0.9},
                             std::pair<size_t, double>{4000, 0.6}}) {
    Graph g = testing::RandomHubGraph(n, 2, 3, 1, 61, 2, f);
    const double reach = (1.0 - std::exp(-f)) * static_cast<double>(n);
    EXPECT_NEAR(static_cast<double>(g.max_degree()), reach, 0.03 * reach)
        << "n=" << n << " f=" << f;
    EXPECT_LT(static_cast<double>(g.max_degree()),
              0.8 * f * static_cast<double>(n))
        << "n=" << n << " f=" << f;
  }
}

TEST(Generators, TriadFormationAddsTriangles) {
  auto count_triangles = [](const Graph& g) {
    size_t t = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      auto nbrs = g.neighbors(v);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        for (size_t j = i + 1; j < nbrs.size(); ++j) {
          if (nbrs[i].v > v && nbrs[j].v > v &&
              g.HasAnyEdge(nbrs[i].v, nbrs[j].v)) {
            ++t;
          }
        }
      }
    }
    return t;
  };
  Rng rng_a(8);
  auto plain_edges = GenerateScaleFree(3000, 4, rng_a);
  Rng rng_b(8);
  auto triad_edges = GenerateScaleFree(3000, 4, rng_b, 0, 0.0, 0.6);
  LabelConfig lc;
  Graph plain = std::move(AssignLabels(3000, plain_edges, lc).value());
  Graph triads = std::move(AssignLabels(3000, triad_edges, lc).value());
  EXPECT_GT(count_triangles(triads), 2 * count_triangles(plain));
}

TEST(Generators, PlantedCommunitiesAreDense) {
  Rng rng(9);
  std::vector<RawEdge> edges = GenerateScaleFree(5000, 3, rng);
  std::vector<VertexId> seeds = PlantCommunities(5000, 4, 10, edges, rng);
  ASSERT_EQ(seeds.size(), 4u);
  LabelConfig lc;
  Graph g = std::move(AssignLabels(5000, edges, lc).value());
  // Every seed now has at least community-size-1 neighbours.
  for (VertexId s : seeds) EXPECT_GE(g.degree(s), 9u);
}

TEST(QueryGen, FixedStartVertexIsRespected) {
  Graph data = ::gsi::testing::RandomGraph(300, 4, 2, 2, 10);
  QueryGenConfig qc;
  qc.num_vertices = 4;
  qc.start_vertex = 17;
  Rng rng(11);
  Result<Graph> q = GenerateRandomWalkQuery(data, qc, rng);
  ASSERT_TRUE(q.ok());
  // Query vertex 0 is the walk start: its label must match.
  EXPECT_EQ(q->vertex_label(0), data.vertex_label(17));

  qc.start_vertex = 100000;  // out of range
  EXPECT_FALSE(GenerateRandomWalkQuery(data, qc, rng).ok());
}

TEST(Datasets, ScaleFreeDatasetsHaveSuperHubs) {
  Graph g = MakeDataset("gowalla", 0.2)->graph;
  // Hubs at ~7% of |V| dominate the degree distribution.
  EXPECT_GT(g.max_degree(), g.num_vertices() / 25);
}

TEST(Datasets, AllNamedDatasetsBuild) {
  for (const std::string& name : DatasetNames()) {
    Result<Dataset> d = MakeDataset(name, /*scale=*/0.02);
    ASSERT_TRUE(d.ok()) << name;
    EXPECT_GT(d->graph.num_vertices(), 0u) << name;
    EXPECT_GT(d->graph.num_edges(), 0u) << name;
  }
  EXPECT_FALSE(MakeDataset("nope").ok());
}

TEST(Datasets, RoadIsMeshLikeOthersSkewed) {
  Graph road = MakeDataset("road", 0.05)->graph;
  EXPECT_LE(road.max_degree(), 4u);
  Graph gowalla = MakeDataset("gowalla", 0.05)->graph;
  EXPECT_GT(gowalla.max_degree(), 50u);
}

TEST(Datasets, WatDivSeriesScalesLinearly) {
  Result<Dataset> small = MakeWatDivLike(2000);
  Result<Dataset> big = MakeWatDivLike(4000);
  ASSERT_TRUE(small.ok() && big.ok());
  double ratio = static_cast<double>(big->graph.num_edges()) /
                 static_cast<double>(small->graph.num_edges());
  EXPECT_GT(ratio, 1.7);
  EXPECT_LT(ratio, 2.3);
}

}  // namespace
}  // namespace gsi
