#ifndef GSI_TESTS_TEST_UTIL_H_
#define GSI_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "gpusim/device.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/labeler.h"
#include "graph/query_generator.h"
#include "gsi/join.h"
#include "gsi/replication.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/status.h"

namespace gsi::testing {

/// Random labeled scale-free graph for property tests.
inline Graph RandomGraph(size_t n, size_t edges_per_vertex,
                         size_t num_vlabels, size_t num_elabels,
                         uint64_t seed) {
  Rng rng(seed);
  std::vector<RawEdge> edges = GenerateScaleFree(n, edges_per_vertex, rng);
  LabelConfig lc;
  lc.num_vertex_labels = num_vlabels;
  lc.num_edge_labels = num_elabels;
  lc.seed = seed + 1;
  Result<Graph> g = AssignLabels(n, edges, lc);
  GSI_CHECK(g.ok());
  return std::move(g.value());
}

/// Random labeled power-law graph with planted super-hubs: `num_hubs`
/// vertices, each adjacent to about (1 - e^-hub_fraction) of the graph
/// (GenerateScaleFree draws hub targets with replacement). Hubs are
/// what make remote-probe caching matter — every partition's join walks the
/// same few high-degree rows over and over — so halo-cache property tests
/// sweep this shape alongside the plain scale-free one. Deterministic in
/// (n, edges_per_vertex, labels, seed, num_hubs, hub_fraction).
inline Graph RandomHubGraph(size_t n, size_t edges_per_vertex,
                            size_t num_vlabels, size_t num_elabels,
                            uint64_t seed, size_t num_hubs,
                            double hub_fraction) {
  Rng rng(seed);
  std::vector<RawEdge> edges =
      GenerateScaleFree(n, edges_per_vertex, rng, num_hubs, hub_fraction);
  LabelConfig lc;
  lc.num_vertex_labels = num_vlabels;
  lc.num_edge_labels = num_elabels;
  lc.seed = seed + 1;
  Result<Graph> g = AssignLabels(n, edges, lc);
  GSI_CHECK(g.ok());
  return std::move(g.value());
}

/// Random connected query extracted from `data` (guaranteed >= 1 match).
inline Graph RandomQuery(const Graph& data, size_t num_vertices,
                         uint64_t seed) {
  QueryGenConfig qc;
  qc.num_vertices = num_vertices;
  std::vector<Graph> qs = GenerateQuerySet(data, qc, 1, seed);
  GSI_CHECK(!qs.empty());
  return std::move(qs[0]);
}

/// Seeded query workload over `data`: `count` connected queries of
/// `num_vertices` vertices each (every one has >= 1 match by construction).
inline std::vector<Graph> RandomQuerySet(const Graph& data,
                                         size_t num_vertices, size_t count,
                                         uint64_t seed) {
  QueryGenConfig qc;
  qc.num_vertices = num_vertices;
  std::vector<Graph> qs = GenerateQuerySet(data, qc, count, seed);
  GSI_CHECK(!qs.empty());
  return qs;
}

/// One-shot execution against a partitioned data graph (any R) under
/// `sel`: ExecuteQueryReplicatedPaged materialized by ToQueryResult on a
/// scratch device (host-mediated row movement, so no counter moves) — what
/// QueryEngine::Execute returns for a replicated target, without an engine
/// built over the graph's exact options.
inline Result<QueryResult> ExecuteReplicated(const ReplicatedGraph& rg,
                                             const ReplicaSelection& sel,
                                             const Graph& query) {
  Result<PagedQueryResult> paged = ExecuteQueryReplicatedPaged(rg, sel, query);
  if (!paged.ok()) return paged.status();
  gpusim::Device scratch;
  return ToQueryResult(std::move(paged.value()), scratch);
}

/// The same under the compact (packed) selection — the only one R = 1
/// admits.
inline Result<QueryResult> ExecuteReplicated(const ReplicatedGraph& rg,
                                             const Graph& query) {
  return ExecuteReplicated(rg, CompactSelection(rg), query);
}

/// Every simulated counter of one phase.
inline void ExpectSameCounters(const gpusim::MemStats& a,
                               const gpusim::MemStats& b,
                               const std::string& context) {
  EXPECT_EQ(a.kernel_launches, b.kernel_launches) << context;
  EXPECT_EQ(a.gld, b.gld) << context;
  EXPECT_EQ(a.gst, b.gst) << context;
  EXPECT_EQ(a.shared_accesses, b.shared_accesses) << context;
  EXPECT_EQ(a.alu_ops, b.alu_ops) << context;
  EXPECT_EQ(a.remote_transactions, b.remote_transactions) << context;
  EXPECT_EQ(a.simulated_cycles, b.simulated_cycles) << context;
}

/// Every field of a join's JoinStats.
inline void ExpectSameJoinStats(const JoinStats& a, const JoinStats& b,
                                const std::string& context) {
  EXPECT_EQ(a.iterations, b.iterations) << context;
  EXPECT_EQ(a.peak_rows, b.peak_rows) << context;
  EXPECT_EQ(a.final_rows, b.final_rows) << context;
  EXPECT_EQ(a.total_chunks, b.total_chunks) << context;
  EXPECT_EQ(a.dup_cache_hits, b.dup_cache_hits) << context;
  EXPECT_EQ(a.dup_cache_misses, b.dup_cache_misses) << context;
  EXPECT_EQ(a.staged_blocks, b.staged_blocks) << context;
}

}  // namespace gsi::testing

#endif  // GSI_TESTS_TEST_UTIL_H_
