// Correctness of the GSI join engine in every configuration, validated
// against the brute-force oracle. This is the core property suite: all
// ablation knobs (storage structure, output scheme, set ops, write cache,
// load balance, duplicate removal) must not change results, only costs.

#include <gtest/gtest.h>

#include "baselines/oracle.h"
#include "graph/graph_builder.h"
#include "gsi/join.h"
#include "gsi/matcher.h"
#include "gsi/plan.h"
#include "gsi/query_engine.h"
#include "test_util.h"
#include "util/rng.h"

namespace gsi {
namespace {

using ::gsi::testing::RandomGraph;
using ::gsi::testing::RandomQuery;
using ::gsi::testing::RandomQuerySet;

std::vector<std::vector<VertexId>> RunGsi(const Graph& data,
                                          const Graph& query,
                                          const GsiOptions& options) {
  GsiMatcher matcher(data, options);
  Result<QueryResult> r = matcher.Find(query);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r->AllMatchesSorted();
}

TEST(JoinBasic, TriangleInTriangle) {
  GraphBuilder b;
  VertexId v0 = b.AddVertex(0);
  VertexId v1 = b.AddVertex(1);
  VertexId v2 = b.AddVertex(2);
  b.AddEdge(v0, v1, 0);
  b.AddEdge(v1, v2, 0);
  b.AddEdge(v2, v0, 0);
  Graph g = std::move(b).Build().value();

  auto matches = RunGsi(g, g, DefaultGsiOptions());
  // The triangle with distinct vertex labels has exactly one automorphism.
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], (std::vector<VertexId>{0, 1, 2}));
}

TEST(JoinBasic, PaperRunningExample) {
  // Figure 1: u0(A)-u1(B) via a, u0-u2(C) via b, u1-u3(C) via a, u2-u3? No:
  // edges are u0u1:a, u0u2:b, u1u3:a, u2u3:a per the matching table shape.
  GraphBuilder qb;
  VertexId u0 = qb.AddVertex(/*A=*/0);
  VertexId u1 = qb.AddVertex(/*B=*/1);
  VertexId u2 = qb.AddVertex(/*C=*/2);
  VertexId u3 = qb.AddVertex(/*C=*/2);
  qb.AddEdge(u0, u1, /*a=*/0);
  qb.AddEdge(u0, u2, /*b=*/1);
  qb.AddEdge(u1, u3, /*a=*/0);
  qb.AddEdge(u2, u3, /*a=*/0);
  Graph q = std::move(qb).Build().value();

  // Data graph in the spirit of Figure 1(b): v0(A) connected to B-vertices
  // v1..v100 via a; one C hub v201 via b; B vertices chain to C vertices
  // v101..v200 via a; v201 connects to v200 via a.
  GraphBuilder db;
  VertexId v0 = db.AddVertex(0);
  VertexId b_first = db.AddVertices(100, 1);   // v1..v100
  VertexId c_first = db.AddVertices(100, 2);   // v101..v200
  VertexId hub = db.AddVertex(2);              // v201
  for (int i = 0; i < 100; ++i) {
    db.AddEdge(v0, b_first + i, 0);                    // a
    db.AddEdge(b_first + i, c_first + i, 0);           // a
  }
  db.AddEdge(v0, hub, 1);                              // b
  db.AddEdge(hub, c_first + 99, 0);                    // v201 - v200 via a
  Graph g = std::move(db).Build().value();

  auto expected = EnumerateMatchesBruteForce(g, q);
  auto actual = RunGsi(g, q, DefaultGsiOptions());
  EXPECT_EQ(actual, expected);
  // Figure 1(c): exactly one match (u1->v100 chain through the hub).
  EXPECT_EQ(actual.size(), 1u);
}

struct JoinConfigCase {
  StorageKind storage;
  OutputScheme scheme;
  SetOpKind set_op;
  bool write_cache;
  bool load_balance;
  bool dup_removal;
};

std::string CaseName(const ::testing::TestParamInfo<JoinConfigCase>& info) {
  const JoinConfigCase& c = info.param;
  std::string s;
  switch (c.storage) {
    case StorageKind::kCsr: s += "Csr"; break;
    case StorageKind::kPcsr: s += "Pcsr"; break;
    case StorageKind::kBasicRep: s += "Br"; break;
    case StorageKind::kCompressedRep: s += "Cr"; break;
  }
  s += c.scheme == OutputScheme::kTwoStep ? "TwoStep" : "Prealloc";
  s += c.set_op == SetOpKind::kNaive ? "Naive" : "Warp";
  s += c.write_cache ? "Wc" : "NoWc";
  s += c.load_balance ? "Lb" : "NoLb";
  s += c.dup_removal ? "Dr" : "NoDr";
  return s;
}

class JoinConfigSweep : public ::testing::TestWithParam<JoinConfigCase> {};

TEST_P(JoinConfigSweep, MatchesOracleOnRandomGraphs) {
  const JoinConfigCase& c = GetParam();
  GsiOptions options;
  options.join.storage = c.storage;
  options.join.output_scheme = c.scheme;
  options.join.set_op = c.set_op;
  options.join.write_cache = c.write_cache;
  options.join.load_balance = c.load_balance;
  options.join.duplicate_removal = c.dup_removal;
  // Small thresholds so load balance actually kicks in on test graphs.
  options.join.w1 = 4096;
  options.join.w3 = 256;

  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Graph data = RandomGraph(200, 3, 4, 3, seed);
    Graph query = RandomQuery(data, 4, seed * 7 + 1);
    auto expected = EnumerateMatchesBruteForce(data, query);
    auto actual = RunGsi(data, query, options);
    ASSERT_EQ(actual, expected)
        << "seed=" << seed << " matches=" << expected.size();
    ASSERT_GE(expected.size(), 1u);  // walk queries always match
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, JoinConfigSweep,
    ::testing::Values(
        // The paper's named configurations.
        JoinConfigCase{StorageKind::kCsr, OutputScheme::kTwoStep,
                       SetOpKind::kNaive, false, false, false},  // GSI-
        JoinConfigCase{StorageKind::kPcsr, OutputScheme::kTwoStep,
                       SetOpKind::kNaive, false, false, false},  // +DS
        JoinConfigCase{StorageKind::kPcsr, OutputScheme::kPreallocCombine,
                       SetOpKind::kNaive, false, false, false},  // +PC
        JoinConfigCase{StorageKind::kPcsr, OutputScheme::kPreallocCombine,
                       SetOpKind::kWarpFriendly, true, false, false},  // +SO
        JoinConfigCase{StorageKind::kPcsr, OutputScheme::kPreallocCombine,
                       SetOpKind::kWarpFriendly, true, true, false},  // +LB
        JoinConfigCase{StorageKind::kPcsr, OutputScheme::kPreallocCombine,
                       SetOpKind::kWarpFriendly, true, true, true},  // opt
        // Cross products that must also hold.
        JoinConfigCase{StorageKind::kBasicRep,
                       OutputScheme::kPreallocCombine,
                       SetOpKind::kWarpFriendly, true, false, false},
        JoinConfigCase{StorageKind::kCompressedRep,
                       OutputScheme::kPreallocCombine,
                       SetOpKind::kWarpFriendly, true, false, false},
        JoinConfigCase{StorageKind::kPcsr, OutputScheme::kPreallocCombine,
                       SetOpKind::kWarpFriendly, false, false, false},
        JoinConfigCase{StorageKind::kCsr, OutputScheme::kPreallocCombine,
                       SetOpKind::kWarpFriendly, true, false, false},
        JoinConfigCase{StorageKind::kPcsr, OutputScheme::kTwoStep,
                       SetOpKind::kWarpFriendly, true, false, false},
        JoinConfigCase{StorageKind::kPcsr, OutputScheme::kPreallocCombine,
                       SetOpKind::kNaive, false, true, true}),
    CaseName);

// Load balance with aggressive thresholds: chunking must not change
// results even when every row is split.
TEST(JoinLoadBalance, AggressiveChunkingMatchesOracle) {
  GsiOptions options;
  options.join.load_balance = true;
  options.join.w1 = 2048;
  options.join.w3 = 32;
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    Graph data = RandomGraph(300, 4, 3, 2, seed);
    Graph query = RandomQuery(data, 4, seed);
    auto expected = EnumerateMatchesBruteForce(data, query);
    auto actual = RunGsi(data, query, options);
    ASSERT_EQ(actual, expected) << "seed=" << seed;
  }
}

TEST(JoinLimits, RowCapReturnsResourceExhausted) {
  // A dense same-label graph explodes the intermediate table.
  Graph data = RandomGraph(64, 8, 1, 1, 99);
  Graph query = RandomQuery(data, 5, 3);
  GsiOptions options;
  options.join.max_rows = 16;
  GsiMatcher matcher(data, options);
  Result<QueryResult> r = matcher.Find(query);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(JoinEdgeCases, DisconnectedQueryRejected) {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(0);
  b.AddVertex(0);
  b.AddVertex(0);
  b.AddEdge(0, 1, 0);
  b.AddEdge(2, 3, 0);
  Graph q = std::move(b).Build().value();
  Graph data = RandomGraph(100, 3, 2, 2, 5);
  GsiMatcher matcher(data);
  Result<QueryResult> r = matcher.Find(q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(JoinEdgeCases, NoMatchesWhenLabelAbsent) {
  Graph data = RandomGraph(100, 3, 2, 2, 6);
  GraphBuilder b;
  b.AddVertex(7);  // label 7 never appears in data (labels are 0..1)
  b.AddVertex(0);
  b.AddEdge(0, 1, 0);
  Graph q = std::move(b).Build().value();
  GsiMatcher matcher(data);
  Result<QueryResult> r = matcher.Find(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_matches(), 0u);
}

TEST(JoinEdgeCases, SingleVertexQueryReturnsCandidates) {
  Graph data = RandomGraph(50, 2, 2, 2, 8);
  GraphBuilder b;
  b.AddVertex(data.vertex_label(0));
  Graph q = std::move(b).Build().value();
  GsiMatcher matcher(data);
  Result<QueryResult> r = matcher.Find(q);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->num_matches(), 1u);
  size_t expected = data.VertexLabelFrequency(data.vertex_label(0));
  // Signature filter may prune isolated vertices only by label: the count
  // equals the label frequency.
  EXPECT_EQ(r->num_matches(), expected);
}

// Injectivity: no result row may bind two query vertices to one data
// vertex, and every result must be edge-consistent.
TEST(JoinProperties, ResultsAreValidEmbeddings) {
  for (uint64_t seed = 21; seed <= 24; ++seed) {
    Graph data = RandomGraph(250, 3, 3, 3, seed);
    Graph query = RandomQuery(data, 5, seed);
    GsiMatcher matcher(data, GsiOptOptions());
    Result<QueryResult> r = matcher.Find(query);
    ASSERT_TRUE(r.ok());
    for (size_t i = 0; i < r->num_matches(); ++i) {
      std::vector<VertexId> m = r->MatchInQueryOrder(i);
      // Injective.
      std::vector<VertexId> sorted = m;
      std::sort(sorted.begin(), sorted.end());
      ASSERT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end());
      // Label- and edge-preserving.
      for (VertexId u = 0; u < query.num_vertices(); ++u) {
        ASSERT_EQ(data.vertex_label(m[u]), query.vertex_label(u));
        for (const Neighbor& n : query.neighbors(u)) {
          ASSERT_TRUE(data.HasEdge(m[u], m[n.v], n.elabel));
        }
      }
    }
  }
}

// ------------------------------------------------- launch structure ---

uint64_t LaunchesOf(const QueryResult& r) {
  return r.stats.filter.kernel_launches + r.stats.join.kernel_launches;
}

// A Prealloc-Combine step launches Pass A and link, and the link kernel also
// sizes the next step; step 0's sizing kernel seeds the table. The filter
// launches its scan and the candidate-bitset build. Rows of these degrees
// all stay in Layers 3/4, so a query launches 2 + 1 + 2 (|V(Q)| - 1) =
// 2 |V(Q)| + 1 kernels.
TEST(JoinLaunches, TwoPerStepWithoutHeavyRows) {
  Graph data = RandomGraph(300, 3, 3, 2, 41);
  for (size_t nq : {2u, 3u, 5u, 8u}) {
    Graph query = RandomQuery(data, nq, 40 + nq);
    GsiMatcher matcher(data, GsiOptOptions());
    Result<QueryResult> r = matcher.Find(query);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_GE(r->num_matches(), 1u);  // every step ran
    EXPECT_EQ(r->stats.join_detail.iterations, nq - 1);
    EXPECT_EQ(LaunchesOf(*r), 2 * nq + 1) << "nq=" << nq;
  }
}

// Hubs of 1100, 1500 and 2000 leaves, plus one light hub: the 2-vertex
// query's seed rows are the hubs, and their first-edge bounds are the leaf
// counts. At W1 = 4096 the heavy hubs are Layer-2 rows, which share the
// Layers 2-4 launch, so the query launches 2 |V(Q)| + 1 = 5 kernels; every
// W1 below a hub's bound moves it to Layer 1, one launch of its own.
TEST(JoinLaunches, OnePerLayerOneRowAndNoneForLayerTwo) {
  GraphBuilder b;
  for (size_t leaves : {1100u, 1500u, 2000u, 10u}) {
    VertexId hub = b.AddVertex(0);
    VertexId first = b.AddVertices(leaves, 1);
    for (size_t i = 0; i < leaves; ++i) {
      b.AddEdge(hub, first + static_cast<VertexId>(i), 0);
    }
  }
  Graph data = std::move(b).Build().value();
  GraphBuilder qb;
  VertexId u0 = qb.AddVertex(0);
  VertexId u1 = qb.AddVertex(1);
  qb.AddEdge(u0, u1, 0);
  Graph query = std::move(qb).Build().value();

  const std::pair<uint32_t, uint64_t> w1_to_layer1_rows[] = {
      {4096, 0}, {1600, 1}, {1200, 2}, {1025, 3}};
  for (const auto& [w1, layer1_rows] : w1_to_layer1_rows) {
    GsiOptions options = GsiOptOptions();
    options.join.w1 = w1;
    GsiMatcher matcher(data, options);
    Result<QueryResult> r = matcher.Find(query);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->num_matches(), 4610u);
    EXPECT_EQ(LaunchesOf(*r), 2 * 2 + 1 + layer1_rows) << "w1=" << w1;
  }
}

// ------------------------------------------------------- row order ---

// A scale-free graph over labels 0/1 plus three label-2 hubs adjacent to
// 1100, 1500 and 40 of its vertices (one edge label), and queries seeded
// at a hub: their step-0 rows have first-edge bounds 1100, 1500 and 40, so
// at W1 = 1200 they land in Layer 2, Layer 1 and Layers 3/4. Pass A runs
// the light last row first, so an output order that followed the layers
// would permute the table. A random walk over the scale-free part joins
// alongside.
struct HubCase {
  Graph data;
  std::vector<Graph> queries;
};

HubCase MakeHubCase() {
  Graph base = RandomGraph(2000, 2, 2, 1, 61);
  GraphBuilder b;
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    b.AddVertex(base.vertex_label(v));
  }
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    for (const Neighbor& n : base.neighbors(v)) {
      if (v < n.v) b.AddEdge(v, n.v, n.elabel);
    }
  }
  const VertexId hub_a = b.AddVertex(2);
  const VertexId hub_b = b.AddVertex(2);
  const VertexId hub_c = b.AddVertex(2);
  for (VertexId v = 0; v < 1100; ++v) b.AddEdge(hub_a, v, 0);
  for (VertexId v = 500; v < 2000; ++v) b.AddEdge(hub_b, v, 0);
  for (VertexId v = 1900; v < 1940; ++v) b.AddEdge(hub_c, v, 0);
  HubCase c{std::move(b).Build().value(), {}};

  GraphBuilder path;  // hub - label 0 - label 1
  path.AddVertices(1, 2);
  path.AddVertex(0);
  path.AddVertex(1);
  path.AddEdge(0, 1, 0);
  path.AddEdge(1, 2, 0);
  c.queries.push_back(std::move(path).Build().value());
  GraphBuilder triangle;  // hub - label 0 - label 1 - hub
  triangle.AddVertices(1, 2);
  triangle.AddVertex(0);
  triangle.AddVertex(1);
  triangle.AddEdge(0, 1, 0);
  triangle.AddEdge(1, 2, 0);
  triangle.AddEdge(2, 0, 0);
  c.queries.push_back(std::move(triangle).Build().value());
  for (Graph& q : RandomQuerySet(base, 4, 1, 63)) {
    c.queries.push_back(std::move(q));
  }
  return c;
}

// Prealloc-Combine places each chunk's survivors at a scanned offset; a
// wrong offset permutes rows without changing the match set, which the
// sorted oracle comparisons above cannot see. kTwoStep writes row i's
// results at the prefix sum of the counts before it, so its table is the
// row order to match, for every storage kind and load-balance /
// duplicate-removal setting.
TEST(JoinRowOrder, PreallocCombineTableEqualsTwoStepRowForRow) {
  const HubCase hub = MakeHubCase();
  for (StorageKind storage :
       {StorageKind::kCsr, StorageKind::kPcsr, StorageKind::kBasicRep,
        StorageKind::kCompressedRep}) {
    GsiOptions two_step;
    two_step.join.storage = storage;
    two_step.join.output_scheme = OutputScheme::kTwoStep;
    GsiMatcher reference(hub.data, two_step);
    for (bool lb : {false, true}) {
      for (bool dr : {false, true}) {
        GsiOptions options;
        options.join.storage = storage;
        options.join.load_balance = lb;
        options.join.duplicate_removal = dr;
        options.join.w1 = 1200;
        options.join.w3 = 32;
        GsiMatcher matcher(hub.data, options);
        for (size_t q = 0; q < hub.queries.size(); ++q) {
          Result<QueryResult> want = reference.Find(hub.queries[q]);
          Result<QueryResult> got = matcher.Find(hub.queries[q]);
          ASSERT_TRUE(want.ok() && got.ok());
          ASSERT_GE(want->num_matches(), 1u);
          EXPECT_TRUE(got->TableEquals(*want))
              << "storage=" << static_cast<int>(storage) << " lb=" << lb
              << " dr=" << dr << " query=" << q;
        }
      }
    }
  }
}

// Duplicate removal shares a block's first-edge reads, and their C(u)
// probes, among the rows whose first edge binds the same vertex; with it
// the join loads strictly less, whatever the storage.
TEST(JoinDupRemoval, RemovalLowersJoinGldOnEveryStorage) {
  const HubCase hub = MakeHubCase();
  for (StorageKind storage :
       {StorageKind::kCsr, StorageKind::kPcsr, StorageKind::kBasicRep,
        StorageKind::kCompressedRep}) {
    uint64_t gld[2] = {0, 0};  // without, with removal
    for (bool dr : {false, true}) {
      GsiOptions options = GsiOptOptions();
      options.join.storage = storage;
      options.join.duplicate_removal = dr;
      options.join.w1 = 1200;
      options.join.w3 = 32;
      GsiMatcher matcher(hub.data, options);
      for (const Graph& q : hub.queries) {
        Result<QueryResult> r = matcher.Find(q);
        ASSERT_TRUE(r.ok());
        gld[dr ? 1 : 0] += r->stats.join.gld;
      }
    }
    EXPECT_LT(gld[1], gld[0]) << "storage=" << static_cast<int>(storage);
  }
}

// --------------------------------------------------- staged probe ---

// A label-0 hub with `leaves` label-1 leaves, padded with isolated label-2
// vertices to 8,192 vertices: every bitset is 256 words, 8 lines. The
// one-edge query's one join step runs in one Pass A block whose slices
// hold `leaves` elements (from the hub row, or one per leaf row).
TEST(JoinStagedProbe, StagesOnlyWhenTheSlicesReachTheBitsetLines) {
  for (size_t leaves : {7u, 8u}) {
    GraphBuilder b;
    const VertexId hub = b.AddVertex(0);
    const VertexId first = b.AddVertices(leaves, 1);
    for (size_t i = 0; i < leaves; ++i) {
      b.AddEdge(hub, first + static_cast<VertexId>(i), 0);
    }
    b.AddVertices(8192 - 1 - leaves, 2);
    Graph data = std::move(b).Build().value();
    GraphBuilder qb;
    qb.AddVertex(0);
    qb.AddVertex(1);
    qb.AddEdge(0, 1, 0);
    Graph query = std::move(qb).Build().value();
    for (const GsiOptions& options : {DefaultGsiOptions(), GsiOptOptions()}) {
      GsiMatcher matcher(data, options);
      Result<QueryResult> r = matcher.Find(query);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->num_matches(), leaves);
      EXPECT_EQ(r->stats.join_detail.staged_blocks, leaves >= 8 ? 1u : 0u)
          << "leaves=" << leaves
          << " load_balance=" << options.join.load_balance;
    }
  }
}

// Three label-0 hubs, each adjacent to 2,000 of 100,000 label-1 vertices
// drawn at random: a 32-lane probe of a hub's sorted list spans about
// 1,600 ids, two or three lines of the 98-line bitset (3,126 words,
// 12,504 B), so a hub's 63 probes load more lines than the bitset has.
// 48 KB of shared memory holds that bitset beside the duplicate-removal
// cache's 32 KB; a 12 KB block does not. The star query's one step runs
// the hub rows, whose blocks stage the bitset at 48 KB and then probe
// without loads, so the join (whose other kernels do not depend on the
// shared-memory size) loads less, and its table equals the one of the
// device that cannot stage.
TEST(JoinStagedProbe, StagingLowersJoinGldAndKeepsTheTable) {
  GraphBuilder b;
  const VertexId leaves = b.AddVertices(100000, 1);
  Rng rng(71);
  for (int h = 0; h < 3; ++h) {
    const VertexId hub = b.AddVertex(0);
    for (int i = 0; i < 2000; ++i) {
      b.AddEdge(hub, leaves + static_cast<VertexId>(rng.NextBounded(100000)),
                0);
    }
  }
  const Graph data = std::move(b).Build().value();
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(1);
  qb.AddEdge(0, 1, 0);
  const Graph query = std::move(qb).Build().value();
  for (const GsiOptions& base : {DefaultGsiOptions(), GsiOptOptions()}) {
    GsiOptions small = base;
    small.device.shared_memory_bytes = 12 * 1024;
    Result<QueryResult> got = GsiMatcher(data, base).Find(query);
    Result<QueryResult> want = GsiMatcher(data, small).Find(query);
    ASSERT_TRUE(got.ok() && want.ok());
    const std::string context =
        "load_balance=" + std::to_string(base.join.load_balance);
    EXPECT_GE(want->num_matches(), 5000u) << context;
    EXPECT_TRUE(got->TableEquals(*want)) << context;
    EXPECT_GT(got->stats.join_detail.staged_blocks, 0u) << context;
    EXPECT_EQ(want->stats.join_detail.staged_blocks, 0u) << context;
    EXPECT_LT(got->stats.join.gld, want->stats.join.gld) << context;
  }
}

// ------------------------------------------------------ step sizing ---

// The sizing of `table` for `step`, recomputed on the host: every row's
// first-edge bound |N(v, l0)| read from the Graph (CSR bounds by the full
// degree), then the exclusive prefix with the end last.
void ExpectSizingOf(const Graph& data, StorageKind storage,
                    const MatchTable& table, const JoinStep& step,
                    const JoinEngine::StepBounds& sizing,
                    const std::string& context) {
  const LinkEdge& e0 = step.links[0];
  ASSERT_EQ(sizing.bounds.size(), table.rows()) << context;
  ASSERT_EQ(sizing.offsets.size(), table.rows() + 1) << context;
  EXPECT_EQ(sizing.base, 0u) << context;
  uint64_t offset = 0;
  for (size_t r = 0; r < table.rows(); ++r) {
    const VertexId v = table.At(r, e0.prev_column);
    const size_t bound = storage == StorageKind::kCsr
                             ? data.degree(v)
                             : data.NeighborsWithLabel(v, e0.label).size();
    ASSERT_EQ(sizing.bounds[r], bound) << context << " row " << r;
    ASSERT_EQ(sizing.offsets[r], offset) << context << " row " << r;
    offset += bound;
  }
  EXPECT_EQ(sizing.offsets[table.rows()], offset) << context;
}

// Seed, then RunSteps one step at a time: every step's link kernel writes
// the next step's sizing, which must equal the host recomputation from the
// table it returns. MakeHubCase's hub-seeded queries put the link kernel's
// input rows in Layers 1, 2 and 3/4 at W1 = 1200; a star at the hub makes
// step 1's e0 bind the older hub column (one lookup per chunk), and the
// path's binds the column step 0 wrote (one lookup per row).
TEST(JoinSizing, LinkKernelWritesTheNextStepsSizing) {
  HubCase hub = MakeHubCase();
  GraphBuilder star;  // label 0 - hub - label 1
  star.AddVertices(1, 2);
  star.AddVertex(0);
  star.AddVertex(1);
  star.AddEdge(0, 1, 0);
  star.AddEdge(0, 2, 0);
  hub.queries.push_back(std::move(star).Build().value());

  size_t new_column = 0;
  size_t older_column = 0;
  bool linked_layer[3] = {false, false, false};  // Layer 1, 2, 3/4
  for (StorageKind storage :
       {StorageKind::kCsr, StorageKind::kPcsr, StorageKind::kBasicRep,
        StorageKind::kCompressedRep}) {
    GsiOptions options = GsiOptOptions();
    options.join.storage = storage;
    options.join.w1 = 1200;
    options.join.w3 = 32;
    QueryEngine engine(hub.data, options);
    for (size_t q = 0; q < hub.queries.size(); ++q) {
      const Graph& query = hub.queries[q];
      const std::string context = "storage=" +
                                  std::to_string(static_cast<int>(storage)) +
                                  " query=" + std::to_string(q);
      gpusim::Device dev(options.device);
      QueryStats stats;
      Result<FilterResult> filtered =
          RunFilterStage(dev, engine.filter(), query, stats);
      ASSERT_TRUE(filtered.ok()) << context;
      ASSERT_FALSE(filtered->AnyEmpty()) << context;
      const JoinPlan plan =
          MakeJoinPlan(query, hub.data, filtered->candidates);
      JoinEngine join(&dev, &engine.store(), options.join);
      JoinEngine::SizedTable m =
          join.Seed(plan, filtered->candidates[plan.order[0]].list());
      for (size_t k = 0; k < plan.steps.size(); ++k) {
        const std::string at = context + " step=" + std::to_string(k);
        ASSERT_TRUE(m.sizing.has_value()) << at;
        ExpectSizingOf(hub.data, storage, m.table, plan.steps[k], *m.sizing,
                       at);
        if (k > 0) {
          const bool on_new = plan.steps[k].links[0].prev_column == k;
          (on_new ? new_column : older_column) += 1;
        }
        if (k + 1 < plan.steps.size()) {
          for (size_t r = 0; r < m.table.rows(); ++r) {
            const uint32_t bound = m.sizing->bounds[r];
            linked_layer[bound > 1200 ? 0 : bound > 1024 ? 1 : 2] = true;
          }
        }
        Result<JoinEngine::SizedTable> next =
            join.RunSteps(plan, filtered->candidates, std::move(m), k, k + 1);
        ASSERT_TRUE(next.ok()) << at;
        m = std::move(next.value());
        if (m.table.rows() == 0) break;
      }
      // No step follows the last one (or an emptied table): no sizing.
      EXPECT_FALSE(m.sizing.has_value()) << context;
      Result<QueryResult> want = GsiMatcher(hub.data, options).Find(query);
      ASSERT_TRUE(want.ok()) << context;
      EXPECT_EQ(m.table.rows(), want->table.rows()) << context;
      for (size_t r = 0; r < want->table.rows(); ++r) {
        ASSERT_EQ(m.table.Row(r), want->table.Row(r)) << context;
      }
    }
  }
  EXPECT_GE(new_column, 1u);
  EXPECT_GE(older_column, 1u);
  EXPECT_TRUE(linked_layer[0] && linked_layer[1] && linked_layer[2]);
}

// Bigger query sizes across optimization combos.
class JoinQuerySize : public ::testing::TestWithParam<size_t> {};

TEST_P(JoinQuerySize, MatchesOracle) {
  size_t nq = GetParam();
  Graph data = RandomGraph(300, 3, 5, 4, 31);
  Graph query = RandomQuery(data, nq, 31 + nq);
  auto expected = EnumerateMatchesBruteForce(data, query);
  auto base = RunGsi(data, query, DefaultGsiOptions());
  auto opt = RunGsi(data, query, GsiOptOptions());
  auto minus = RunGsi(data, query, GsiMinusOptions());
  EXPECT_EQ(base, expected);
  EXPECT_EQ(opt, expected);
  EXPECT_EQ(minus, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, JoinQuerySize,
                         ::testing::Values(2, 3, 4, 5, 6, 8));

}  // namespace
}  // namespace gsi
