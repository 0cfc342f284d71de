#include "graph/generators.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"

namespace gsi {
namespace {

uint64_t EdgeKey(VertexId a, VertexId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

std::vector<RawEdge> GenerateErdosRenyi(size_t n, size_t m, Rng& rng) {
  GSI_CHECK(n >= 2);
  // Cap m at the number of distinct pairs (for tiny n in tests).
  uint64_t max_m = static_cast<uint64_t>(n) * (n - 1) / 2;
  if (m > max_m) m = max_m;
  std::unordered_set<uint64_t> seen;
  std::vector<RawEdge> edges;
  edges.reserve(m);
  while (edges.size() < m) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(n));
    VertexId b = static_cast<VertexId>(rng.NextBounded(n));
    if (a == b) continue;
    if (!seen.insert(EdgeKey(a, b)).second) continue;
    edges.push_back(RawEdge{a, b});
  }
  return edges;
}

std::vector<RawEdge> GenerateScaleFree(size_t n, size_t edges_per_vertex,
                                       Rng& rng, size_t num_hubs,
                                       double hub_fraction,
                                       double triad_probability) {
  GSI_CHECK(n >= 2);
  GSI_CHECK(edges_per_vertex >= 1);
  // Endpoint pool: every edge contributes both endpoints, so sampling
  // uniformly from the pool is sampling proportionally to degree.
  std::vector<VertexId> pool;
  pool.reserve(2 * n * edges_per_vertex);
  std::vector<RawEdge> edges;
  edges.reserve(n * edges_per_vertex);
  std::unordered_set<uint64_t> seen;
  // Adjacency kept only for triad formation.
  std::vector<std::vector<VertexId>> adj(triad_probability > 0 ? n : 0);

  auto add_edge = [&](VertexId a, VertexId b) {
    edges.push_back(RawEdge{a, b});
    pool.push_back(a);
    pool.push_back(b);
    if (!adj.empty()) {
      adj[a].push_back(b);
      adj[b].push_back(a);
    }
  };

  // Seed: a small clique among the first vertices.
  size_t seed_size = std::min<size_t>(n, edges_per_vertex + 1);
  for (VertexId a = 0; a < seed_size; ++a) {
    for (VertexId b = a + 1; b < seed_size; ++b) {
      seen.insert(EdgeKey(a, b));
      add_edge(a, b);
    }
  }

  for (VertexId v = static_cast<VertexId>(seed_size); v < n; ++v) {
    size_t added = 0;
    size_t attempts = 0;
    while (added < edges_per_vertex && attempts < 32 * edges_per_vertex) {
      ++attempts;
      VertexId target = pool[rng.NextBounded(pool.size())];
      if (target == v) continue;
      if (!seen.insert(EdgeKey(v, target)).second) continue;
      add_edge(v, target);
      ++added;
      // Triad formation (Holme-Kim): additionally close a triangle through
      // one of target's neighbours. Does not consume the attachment
      // budget, so triad_probability directly raises clustering.
      if (!adj.empty() && rng.NextBool(triad_probability) &&
          !adj[target].empty()) {
        VertexId w = adj[target][rng.NextBounded(adj[target].size())];
        if (w != v && seen.insert(EdgeKey(v, w)).second) {
          add_edge(v, w);
        }
      }
    }
  }

  // Super-hubs: a few vertices adjacent to a constant fraction of the
  // graph, reproducing the real datasets' extreme max degrees. Targets are
  // drawn with replacement and repeats dropped, so a hub reaches about
  // (1 - e^-hub_fraction) of the graph.
  size_t hub_targets = static_cast<size_t>(hub_fraction *
                                           static_cast<double>(n));
  for (size_t h = 0; h < num_hubs && hub_targets > 0; ++h) {
    VertexId hub = static_cast<VertexId>(rng.NextBounded(n));
    for (size_t t = 0; t < hub_targets; ++t) {
      VertexId target = static_cast<VertexId>(rng.NextBounded(n));
      if (target == hub) continue;
      if (!seen.insert(EdgeKey(hub, target)).second) continue;
      edges.push_back(RawEdge{hub, target});
    }
  }
  return edges;
}

std::vector<RawEdge> GenerateMesh(size_t rows, size_t cols) {
  GSI_CHECK(rows >= 1 && cols >= 1);
  std::vector<RawEdge> edges;
  edges.reserve(2 * rows * cols);
  auto id = [cols](size_t r, size_t c) {
    return static_cast<VertexId>(r * cols + c);
  };
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back(RawEdge{id(r, c), id(r, c + 1)});
      if (r + 1 < rows) edges.push_back(RawEdge{id(r, c), id(r + 1, c)});
    }
  }
  return edges;
}

std::vector<VertexId> PlantCommunities(size_t n, size_t count, size_t size,
                                       std::vector<RawEdge>& edges,
                                       Rng& rng) {
  GSI_CHECK(size >= 2 && size <= n);
  std::vector<VertexId> seeds;
  seeds.reserve(count);
  for (size_t c = 0; c < count; ++c) {
    std::unordered_set<VertexId> members;
    while (members.size() < size) {
      members.insert(static_cast<VertexId>(rng.NextBounded(n)));
    }
    std::vector<VertexId> ms(members.begin(), members.end());
    seeds.push_back(ms[0]);
    for (size_t i = 0; i < ms.size(); ++i) {
      for (size_t j = i + 1; j < ms.size(); ++j) {
        edges.push_back(RawEdge{ms[i], ms[j]});
      }
    }
  }
  return seeds;
}

std::vector<size_t> DegreesOf(size_t n, const std::vector<RawEdge>& edges) {
  std::vector<size_t> deg(n, 0);
  for (const RawEdge& e : edges) {
    ++deg[e.src];
    ++deg[e.dst];
  }
  return deg;
}

}  // namespace gsi
