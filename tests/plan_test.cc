// Join-order (Algorithm 2) and first-edge selection (Algorithm 4) tests.

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "gsi/filter.h"
#include "gsi/plan.h"
#include "test_util.h"

namespace gsi {
namespace {

std::vector<CandidateSet> FakeCandidates(gpusim::Device& dev,
                                         const Graph& query, size_t n,
                                         const std::vector<size_t>& sizes) {
  std::vector<std::vector<VertexId>> lists(query.num_vertices());
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    lists[u].resize(sizes[u]);
    for (size_t i = 0; i < sizes[u]; ++i) {
      lists[u][i] = static_cast<VertexId>(i);
    }
  }
  return CandidateSet::Create(dev, std::move(lists), n, false);
}

TEST(PlanOrder, StartsAtMinScoreVertex) {
  // Path query u0 - u1 - u2; u1 has degree 2.
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(1);
  qb.AddVertex(2);
  qb.AddEdge(0, 1, 0);
  qb.AddEdge(1, 2, 0);
  Graph q = std::move(qb).Build().value();
  Graph data = ::gsi::testing::RandomGraph(100, 3, 3, 1, 1);

  gpusim::Device dev;
  // score(u) = |C|/deg: u0: 50/1, u1: 60/2=30, u2: 90/1.
  auto cands = FakeCandidates(dev, q, data.num_vertices(), {50, 60, 90});
  JoinPlan plan = MakeJoinPlan(q, data, cands);
  EXPECT_EQ(plan.order[0], 1u);
  EXPECT_EQ(plan.steps.size(), 2u);
}

TEST(PlanOrder, GrowsConnectedOnly) {
  Graph data = ::gsi::testing::RandomGraph(200, 3, 3, 3, 2);
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Graph q = ::gsi::testing::RandomQuery(data, 6, 40 + seed);
    gpusim::Device dev;
    FilterContext ctx(dev, data, FilterOptions{});
    auto f = ctx.Filter(q);
    ASSERT_TRUE(f.ok());
    JoinPlan plan = MakeJoinPlan(q, data, f->candidates);
    ASSERT_EQ(plan.order.size(), q.num_vertices());
    // Each step's vertex connects to an earlier one via all its links.
    std::vector<bool> seen(q.num_vertices(), false);
    seen[plan.order[0]] = true;
    for (const JoinStep& s : plan.steps) {
      ASSERT_FALSE(s.links.empty());
      for (const LinkEdge& l : s.links) {
        EXPECT_TRUE(seen[l.prev_vertex]);
        EXPECT_EQ(plan.order[l.prev_column], l.prev_vertex);
        EXPECT_TRUE(q.HasEdge(s.u, l.prev_vertex, l.label));
      }
      seen[s.u] = true;
    }
    // Every query edge appears among links exactly once per (u, earlier).
    size_t link_count = 0;
    for (const JoinStep& s : plan.steps) link_count += s.links.size();
    EXPECT_EQ(link_count, q.num_edges());
  }
}

TEST(PlanFirstEdge, PicksRarestLabel) {
  // u2 joins last, linked to u0 via a frequent label and to u1 via a rare
  // one; the rare label must come first (Algorithm 4 Line 1).
  GraphBuilder db;
  VertexId a = db.AddVertices(40, 0);
  for (int i = 0; i + 1 < 40; i += 2) {
    db.AddEdge(a + i, a + i + 1, /*frequent=*/7);
  }
  db.AddEdge(0, 2, /*rare=*/8);
  db.AddEdge(1, 3, 8);
  Graph data = std::move(db).Build().value();

  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(0);
  qb.AddVertex(0);
  qb.AddEdge(0, 1, 7);
  qb.AddEdge(0, 2, 7);   // u2-u0: frequent
  qb.AddEdge(1, 2, 8);   // u2-u1: rare
  Graph q = std::move(qb).Build().value();

  gpusim::Device dev;
  auto cands =
      FakeCandidates(dev, q, data.num_vertices(), {10, 10, 10});
  JoinPlan plan = MakeJoinPlan(q, data, cands);
  const JoinStep& last = plan.steps.back();
  ASSERT_EQ(last.links.size(), 2u);
  EXPECT_EQ(last.links[0].label, 8u);
  EXPECT_LE(last.links[0].label_frequency, last.links[1].label_frequency);
}

TEST(PlanColumns, ColumnOfMatchesOrder) {
  Graph data = ::gsi::testing::RandomGraph(150, 3, 2, 2, 3);
  Graph q = ::gsi::testing::RandomQuery(data, 5, 5);
  gpusim::Device dev;
  FilterContext ctx(dev, data, FilterOptions{});
  auto f = ctx.Filter(q);
  ASSERT_TRUE(f.ok());
  JoinPlan plan = MakeJoinPlan(q, data, f->candidates);
  for (uint32_t i = 0; i < plan.order.size(); ++i) {
    EXPECT_EQ(plan.ColumnOf(plan.order[i]), i);
  }
}

}  // namespace
}  // namespace gsi
