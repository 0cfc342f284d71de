// Property tests for the graph storage structures: CSR, BasicRep,
// CompressedRep and PCSR must all agree with the host graph's N(v, l), and
// PCSR must satisfy its structural invariants (Algorithm 1 / Claim 1).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <ostream>
#include <utility>
#include <vector>

#include "baselines/oracle.h"
#include "gpusim/launch.h"
#include "graph/graph_builder.h"
#include "gsi/filter.h"
#include "gsi/matcher.h"
#include "storage/basic_rep.h"
#include "storage/compressed_rep.h"
#include "storage/csr.h"
#include "storage/partition.h"
#include "storage/pcsr.h"
#include "storage/signature.h"
#include "storage/signature_table.h"
#include "test_util.h"

namespace gsi {
namespace {

using ::gsi::testing::RandomGraph;

/// Runs `fn` inside a one-warp kernel (tests need a Warp to call stores).
template <typename Fn>
void WithWarp(gpusim::Device& dev, Fn&& fn) {
  gpusim::Launch(dev, 1, [&](gpusim::Warp& w) { fn(w); });
}

std::vector<VertexId> HostNeighbors(const Graph& g, VertexId v, Label l) {
  std::vector<VertexId> out;
  for (const Neighbor& n : g.NeighborsWithLabel(v, l)) out.push_back(n.v);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<VertexId> AllVertices(const Graph& g) {
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  return all;
}

struct StoreCase {
  StorageKind kind;
  const char* name;
};

// Names each case in the test names; without it gtest dumps the raw bytes,
// pointer included, and the names differ from build to build.
void PrintTo(const StoreCase& c, std::ostream* os) { *os << c.name; }

class NeighborStoreSuite : public ::testing::TestWithParam<StoreCase> {};

TEST_P(NeighborStoreSuite, ExtractMatchesHostGraph) {
  Graph g = RandomGraph(300, 4, 5, 6, 42);
  gpusim::Device dev;
  auto store = BuildStore(dev, g, GetParam().kind, /*gpn=*/16);
  WithWarp(dev, [&](gpusim::Warp& w) {
    for (VertexId v = 0; v < g.num_vertices(); v += 7) {
      for (Label l : g.edge_labels()) {
        std::vector<VertexId> got;
        store->Extract(w, v, l, got);
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, HostNeighbors(g, v, l)) << "v=" << v << " l=" << l;
      }
    }
  });
}

TEST_P(NeighborStoreSuite, SlicesUnionToFullList) {
  Graph g = RandomGraph(200, 5, 3, 4, 43);
  gpusim::Device dev;
  auto store = BuildStore(dev, g, GetParam().kind, /*gpn=*/16);
  WithWarp(dev, [&](gpusim::Warp& w) {
    for (VertexId v = 0; v < g.num_vertices(); v += 11) {
      for (Label l : g.edge_labels()) {
        size_t bound = store->NeighborCountUpperBound(w, v, l);
        std::vector<VertexId> unioned;
        for (size_t b = 0; b < bound; b += 3) {
          store->ExtractSlice(w, v, l, b, std::min(bound, b + 3), unioned);
        }
        std::sort(unioned.begin(), unioned.end());
        ASSERT_EQ(unioned, HostNeighbors(g, v, l));
      }
    }
  });
}

TEST_P(NeighborStoreSuite, ValueRangeMatchesFilteredList) {
  Graph g = RandomGraph(200, 4, 3, 3, 44);
  gpusim::Device dev;
  auto store = BuildStore(dev, g, GetParam().kind, /*gpn=*/16);
  WithWarp(dev, [&](gpusim::Warp& w) {
    for (VertexId v = 0; v < g.num_vertices(); v += 13) {
      for (Label l : g.edge_labels()) {
        std::vector<VertexId> all = HostNeighbors(g, v, l);
        VertexId lo = 40;
        VertexId hi = 160;
        std::vector<VertexId> expect;
        for (VertexId x : all) {
          if (x >= lo && x <= hi) expect.push_back(x);
        }
        std::vector<VertexId> got;
        store->ExtractValueRange(w, v, l, lo, hi, got);
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, expect);
      }
    }
  });
}

TEST_P(NeighborStoreSuite, UpperBoundDominatesActualCount) {
  Graph g = RandomGraph(150, 4, 2, 5, 45);
  gpusim::Device dev;
  auto store = BuildStore(dev, g, GetParam().kind, /*gpn=*/16);
  WithWarp(dev, [&](gpusim::Warp& w) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (Label l : g.edge_labels()) {
        size_t bound = store->NeighborCountUpperBound(w, v, l);
        ASSERT_GE(bound, HostNeighbors(g, v, l).size());
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllStores, NeighborStoreSuite,
    ::testing::Values(StoreCase{.kind = StorageKind::kCsr, .name = "csr"},
                      StoreCase{.kind = StorageKind::kPcsr, .name = "pcsr"},
                      StoreCase{.kind = StorageKind::kBasicRep, .name = "br"},
                      StoreCase{.kind = StorageKind::kCompressedRep,
                                .name = "cr"}),
    [](const auto& suite_info) { return std::string(suite_info.param.name); });

// ---------------------------------------------------------------- PCSR ---

class PcsrGpnSuite : public ::testing::TestWithParam<int> {};

TEST_P(PcsrGpnSuite, LookupCorrectUnderAllGroupSizes) {
  int gpn = GetParam();
  Graph g = RandomGraph(250, 4, 2, 3, 50 + gpn);
  gpusim::Device dev;
  for (const LabelPartition& part : PartitionByEdgeLabel(g, AllVertices(g))) {
    Result<PcsrPartition> p = PcsrPartition::Build(dev, part, gpn);
    ASSERT_TRUE(p.ok());
    // Every vertex in the partition resolves to its exact neighbor list.
    for (size_t i = 0; i < part.vertices.size(); ++i) {
      auto info = p->HostLookup(part.vertices[i]);
      ASSERT_TRUE(info.found);
      ASSERT_EQ(info.count, part.offsets[i + 1] - part.offsets[i]);
    }
    // Vertices outside the partition are not found.
    for (VertexId v = 0; v < g.num_vertices(); v += 17) {
      if (std::binary_search(part.vertices.begin(), part.vertices.end(),
                             v)) {
        continue;
      }
      EXPECT_FALSE(p->HostLookup(v).found);
    }
  }
}

TEST_P(PcsrGpnSuite, ChainLengthBounded) {
  // Claim 1: overflow always finds empty groups; the expected longest
  // conflict chain is small (paper: <= ceil(45/(GPN-1)) groups).
  int gpn = GetParam();
  Graph g = RandomGraph(500, 3, 2, 2, 60 + gpn);
  gpusim::Device dev;
  for (const LabelPartition& part : PartitionByEdgeLabel(g, AllVertices(g))) {
    Result<PcsrPartition> p = PcsrPartition::Build(dev, part, gpn);
    ASSERT_TRUE(p.ok());
    size_t worst = 0;
    for (VertexId v : part.vertices) {
      worst = std::max(worst, p->HostLookup(v).groups_probed);
    }
    EXPECT_LE(worst, p->max_chain_length());
    // With 15 keys per group (gpn=16), chains should practically never
    // exceed the paper's bound of 3.
    if (gpn == 16) {
    EXPECT_LE(worst, 3u);
  }
  }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, PcsrGpnSuite,
                         ::testing::Values(2, 3, 4, 8, 16));

TEST(Pcsr, RejectsBadGpn) {
  gpusim::Device dev;
  LabelPartition part;
  EXPECT_FALSE(PcsrPartition::Build(dev, part, 1).ok());
  EXPECT_FALSE(PcsrPartition::Build(dev, part, 17).ok());
}

TEST(Pcsr, GroupReadIsOneTransactionAtGpn16) {
  Graph g = RandomGraph(400, 4, 2, 1, 71);
  gpusim::Device dev;
  const LabelPartition part = PartitionByEdgeLabel(g, AllVertices(g))[0];
  Result<PcsrPartition> p = PcsrPartition::Build(dev, part, 16);
  ASSERT_TRUE(p.ok());
  // Locating a no-conflict vertex costs exactly one 128B group load plus
  // the neighbor-list read.
  VertexId v = part.vertices[0];
  auto info = p->HostLookup(v);
  ASSERT_TRUE(info.found);
  gpusim::MemStats before = dev.stats();
  WithWarp(dev, [&](gpusim::Warp& w) { p->NeighborCount(w, v); });
  uint64_t gld = (dev.stats() - before).gld;
  EXPECT_EQ(gld, info.groups_probed);  // one transaction per group probed
}

TEST(Pcsr, SpaceLinearInPartitionEdges) {
  Graph g = RandomGraph(300, 5, 2, 4, 72);
  gpusim::Device dev;
  auto pcsr = PcsrStore::Build(dev, g, 16);
  // Space = 32|V(D)| + 4*2|E(D)| summed over partitions (Section IV says
  // 32x|V(D)| + |E(D)| in elements; bytes here).
  uint64_t expected = 0;
  for (const LabelPartition& part : PartitionByEdgeLabel(g, AllVertices(g))) {
    expected += 128ull * part.num_vertices() +  // 16 pairs x 8B per group
                4ull * part.num_directed_edges();
  }
  EXPECT_EQ(pcsr->device_bytes(), expected);
}

// ----------------------------------------------------------- signatures ---

TEST(Signature, CoversIsSoundForSubgraphs) {
  // If a query vertex u maps to v in some isomorphism, S(v) must cover
  // S(u). Check over random graphs with the identity embedding: encode a
  // query that is a sub-walk of the data graph.
  Graph data = RandomGraph(150, 3, 4, 4, 80);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Graph q = ::gsi::testing::RandomQuery(data, 4, seed);
    // Walk queries embed in data; brute-force one embedding.
    auto matches = EnumerateMatchesBruteForce(data, q, /*limit=*/4);
    ASSERT_FALSE(matches.empty());
    const auto& m = matches.front();
    for (VertexId u = 0; u < q.num_vertices(); ++u) {
      Signature su = Signature::Encode(q, u, 512);
      Signature sv = Signature::Encode(data, m[u], 512);
      EXPECT_TRUE(sv.Covers(su)) << "u=" << u << " v=" << m[u];
    }
  }
}

TEST(Signature, TwoBitStateSaturates) {
  GraphBuilder b;
  VertexId c = b.AddVertex(0);
  // Three neighbours with identical (edge label, vertex label) pairs hash
  // to the same group: state must be 11, not wrap.
  VertexId n1 = b.AddVertex(5);
  VertexId n2 = b.AddVertex(5);
  VertexId n3 = b.AddVertex(5);
  b.AddEdge(c, n1, 9);
  b.AddEdge(c, n2, 9);
  b.AddEdge(c, n3, 9);
  Graph g = std::move(b).Build().value();
  Signature s = Signature::Encode(g, c, 512);
  uint32_t group = SignatureGroupOf(9, 5, 512);
  uint32_t word = s.word(1 + group / 16);
  uint32_t state = (word >> ((group % 16) * 2)) & 0x3;
  EXPECT_EQ(state, 0x3u);

  // A single pair gives 01.
  GraphBuilder b2;
  VertexId c2 = b2.AddVertex(0);
  VertexId m1 = b2.AddVertex(5);
  b2.AddEdge(c2, m1, 9);
  Graph g2 = std::move(b2).Build().value();
  Signature s2 = Signature::Encode(g2, c2, 512);
  uint32_t state2 = (s2.word(1 + group / 16) >> ((group % 16) * 2)) & 0x3;
  EXPECT_EQ(state2, 0x1u);
}

TEST(Signature, VertexLabelStoredVerbatim) {
  Graph g = RandomGraph(50, 2, 7, 3, 81);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    Signature s = Signature::Encode(g, v, 512);
    EXPECT_EQ(s.vertex_label(), g.vertex_label(v));
  }
}

TEST(SignatureTable, LayoutsHoldSameData) {
  Graph g = RandomGraph(100, 3, 3, 3, 82);
  gpusim::Device dev;
  SignatureTable row =
      SignatureTable::Build(dev, g, 512, SignatureTable::Layout::kRowMajor);
  SignatureTable col = SignatureTable::Build(
      dev, g, 512, SignatureTable::Layout::kColumnMajor);
  for (VertexId v = 0; v < g.num_vertices(); v += 7) {
    for (int w = 0; w < 16; ++w) {
      EXPECT_EQ(row.WordAt(v, w), col.WordAt(v, w));
    }
  }
}

/// Checks `t`'s bucketed layout over `vertices` (ascending): rows grouped
/// by label in ascending label order, ids ascending inside a bucket, each
/// LabelRows range exactly its label's rows, word 0 each row's label, and
/// the row map a permutation of `vertices`.
void ExpectBucketedRows(const Graph& g, const SignatureTable& t,
                        const std::vector<VertexId>& vertices) {
  ASSERT_EQ(t.num_vertices(), vertices.size());
  std::vector<VertexId> mapped;
  for (size_t r = 0; r < t.num_vertices(); ++r) {
    const VertexId v = t.VertexAt(r);
    mapped.push_back(v);
    EXPECT_EQ(t.WordAt(r, 0), g.vertex_label(v)) << "row " << r;
    if (r > 0) {
      const VertexId prev = t.VertexAt(r - 1);
      EXPECT_LT(std::pair(g.vertex_label(prev), prev),
                std::pair(g.vertex_label(v), v))
          << "row " << r;
    }
  }
  std::ranges::sort(mapped);
  EXPECT_EQ(mapped, vertices);
  size_t covered = 0;
  for (const auto& [label, count] : g.vertex_label_counts()) {
    const SignatureTable::RowRange rows = t.LabelRows(label);
    for (size_t r = rows.begin; r < rows.end; ++r) {
      EXPECT_EQ(g.vertex_label(t.VertexAt(r)), label) << "row " << r;
    }
    covered += rows.size();
  }
  EXPECT_EQ(covered, t.num_vertices());
  EXPECT_EQ(t.LabelRows(1000).size(), 0u);  // no such label
}

TEST(SignatureTable, RowsAreBucketedByLabelWithIdsAscending) {
  Graph g = RandomGraph(500, 3, 7, 3, 86);
  gpusim::Device dev;
  for (SignatureTable::Layout layout : {SignatureTable::Layout::kColumnMajor,
                                        SignatureTable::Layout::kRowMajor}) {
    ExpectBucketedRows(g, SignatureTable::Build(dev, g, 512, layout),
                       AllVertices(g));
    // Three shares, each with its own buckets and row map.
    for (VertexId p = 0; p < 3; ++p) {
      std::vector<VertexId> share;
      for (VertexId v = p; v < g.num_vertices(); v += 3) share.push_back(v);
      ExpectBucketedRows(
          g, SignatureTable::BuildSubset(dev, g, share, 512, layout), share);
    }
  }
}

TEST(SignatureTable, ColumnMajorCoalescesRowMajorDoesNot) {
  Graph g = RandomGraph(256, 3, 3, 3, 83);
  gpusim::Device dev;
  SignatureTable row =
      SignatureTable::Build(dev, g, 512, SignatureTable::Layout::kRowMajor);
  SignatureTable col = SignatureTable::Build(
      dev, g, 512, SignatureTable::Layout::kColumnMajor);
  uint32_t vals[32];

  gpusim::MemStats before = dev.stats();
  WithWarp(dev, [&](gpusim::Warp& w) { col.WarpReadWord(w, 0, 32, 0, vals); });
  uint64_t col_gld = (dev.stats() - before).gld;

  before = dev.stats();
  WithWarp(dev, [&](gpusim::Warp& w) { row.WarpReadWord(w, 0, 32, 0, vals); });
  uint64_t row_gld = (dev.stats() - before).gld;

  EXPECT_EQ(col_gld, 1u);    // 32 adjacent words = one 128B transaction
  EXPECT_EQ(row_gld, 16u);   // 64B stride: 32 lanes span 16 lines
}

// ------------------------------------------------------- shared shares ---

// A partitioned graph builds each partition's share once, on its replica-0
// device, and every replica device reads it (gsi/replication.h). That holds
// only if a warp is charged by the offsets it reads and never by which
// device allocated the buffer: device B's warps must pay for device A's
// share exactly what they pay for B's own copy.
TEST(SharedShare, ReadsChargeWhatTheReadersOwnCopyCharges) {
  Graph g = RandomGraph(400, 4, 4, 3, 87);
  std::vector<VertexId> share;
  for (VertexId v = 1; v < g.num_vertices(); v += 3) share.push_back(v);
  constexpr int kGpn = 16;
  constexpr int kBits = 512;

  gpusim::Device a;
  // Unrelated allocations first, so A's share sits at other addresses than
  // B's copy.
  const gpusim::DeviceBuffer<uint32_t> pad_words = a.Alloc<uint32_t>(1000);
  const gpusim::DeviceBuffer<uint8_t> pad_bytes = a.Alloc<uint8_t>(77);
  const auto store_a = PcsrStore::BuildSubset(a, g, share, kGpn);
  const SignatureTable table_a =
      SignatureTable::BuildSubset(a, g, share, kBits);

  gpusim::Device b;
  const auto store_b = PcsrStore::BuildSubset(b, g, share, kGpn);
  const SignatureTable table_b =
      SignatureTable::BuildSubset(b, g, share, kBits);

  using Probe = void (*)(gpusim::Warp&, const PcsrStore&, VertexId, Label,
                         std::vector<VertexId>&);
  const std::pair<const char*, Probe> probes[] = {
      {"NeighborCountUpperBound",
       [](gpusim::Warp& w, const PcsrStore& s, VertexId v, Label l,
          std::vector<VertexId>& out) {
         out.push_back(
             static_cast<VertexId>(s.NeighborCountUpperBound(w, v, l)));
       }},
      {"ExtractSlice",
       [](gpusim::Warp& w, const PcsrStore& s, VertexId v, Label l,
          std::vector<VertexId>& out) {
         s.ExtractSlice(w, v, l, 3, 37, out);
       }},
      {"ExtractValueRange",
       [](gpusim::Warp& w, const PcsrStore& s, VertexId v, Label l,
          std::vector<VertexId>& out) {
         s.ExtractValueRange(w, v, l, v / 2, v + 150, out);
       }},
  };
  // Runs `probe` from one warp of B over every share vertex and edge label.
  auto read_on_b = [&](const PcsrStore& s, Probe probe,
                       std::vector<VertexId>& out) {
    const gpusim::MemStats before = b.stats();
    WithWarp(b, [&](gpusim::Warp& w) {
      for (VertexId v : share) {
        for (Label l : g.edge_labels()) probe(w, s, v, l, out);
      }
    });
    return b.stats() - before;
  };
  for (const auto& [name, probe] : probes) {
    std::vector<VertexId> from_a;
    std::vector<VertexId> from_b;
    const gpusim::MemStats shared = read_on_b(*store_a, probe, from_a);
    const gpusim::MemStats own = read_on_b(*store_b, probe, from_b);
    EXPECT_EQ(from_a, from_b) << name;
    EXPECT_GT(own.gld, 0u) << name;
    testing::ExpectSameCounters(shared, own, name);
  }

  // One signature scan pass on B over A's table and over B's copy.
  const Graph q = testing::RandomQuery(g, 5, 88);
  const std::vector<Signature> qsigs = Signature::EncodeAll(q, kBits);
  auto scan_on_b = [&](const SignatureTable& t,
                       std::vector<CandidateScan>& out) {
    const SignatureTable* const tables[] = {&t};
    const gpusim::MemStats before = b.stats();
    out = ScanSignatures(b, tables, qsigs, ScanTiles(tables, qsigs));
    return b.stats() - before;
  };
  std::vector<CandidateScan> scan_a;
  std::vector<CandidateScan> scan_b;
  const gpusim::MemStats shared = scan_on_b(table_a, scan_a);
  const gpusim::MemStats own = scan_on_b(table_b, scan_b);
  ASSERT_EQ(scan_a.size(), 1u);
  ASSERT_EQ(scan_b.size(), 1u);
  EXPECT_EQ(scan_a[0].lists, scan_b[0].lists);
  EXPECT_GT(own.gld, 0u);
  testing::ExpectSameCounters(shared, own, "ScanSignatures");
}

// --------------------------------------------------------- partitions ---

TEST(Partition, CoversEveryEdgeExactlyOnce) {
  Graph g = RandomGraph(150, 4, 3, 5, 84);
  // One partition per edge label, in edge_labels() order (empty ones kept),
  // and each row is exactly N(v, l) of the host graph.
  auto check = [&](const std::vector<VertexId>& vertices) {
    const std::vector<LabelPartition> parts = PartitionByEdgeLabel(g, vertices);
    EXPECT_EQ(parts.size(), g.num_edge_labels());
    size_t directed = 0;
    for (size_t i = 0; i < parts.size(); ++i) {
      const LabelPartition& p = parts[i];
      const Label l = g.edge_labels()[i];
      EXPECT_EQ(p.label, l);
      EXPECT_EQ(p.offsets.size(), p.vertices.size() + 1);
      EXPECT_EQ(p.offsets.back(), p.neighbors.size());
      std::vector<VertexId> rows;
      for (VertexId v : vertices) {
        if (!g.NeighborsWithLabel(v, l).empty()) rows.push_back(v);
      }
      EXPECT_EQ(p.vertices, rows) << "label " << l;
      for (size_t r = 0; r < p.vertices.size(); ++r) {
        const std::vector<VertexId> row(
            p.neighbors.begin() + static_cast<ptrdiff_t>(p.offsets[r]),
            p.neighbors.begin() + static_cast<ptrdiff_t>(p.offsets[r + 1]));
        EXPECT_EQ(row, HostNeighbors(g, p.vertices[r], l))
            << "v=" << p.vertices[r] << " l=" << l;
      }
      directed += p.num_directed_edges();
    }
    return directed;
  };
  EXPECT_EQ(check(AllVertices(g)), 2 * g.num_edges());
  // Three interleaved shares hold every directed edge exactly once.
  size_t shared = 0;
  for (VertexId s = 0; s < 3; ++s) {
    std::vector<VertexId> share;
    for (VertexId v = s; v < g.num_vertices(); v += 3) share.push_back(v);
    shared += check(share);
  }
  EXPECT_EQ(shared, 2 * g.num_edges());
  // An empty share still has one (empty) partition per label.
  EXPECT_EQ(check({}), 0u);
}

TEST(StorageSpace, BasicRepCostsVertexTermPerLabel) {
  Graph g = RandomGraph(200, 3, 2, 8, 85);
  gpusim::Device dev;
  auto br = BasicRep::Build(dev, g);
  auto cr = CompressedRep::Build(dev, g);
  // BR pays (|V|+1) offsets for every label; CR only pays per partition
  // vertex. With 8 labels BR must be far larger.
  EXPECT_GT(br->device_bytes(), cr->device_bytes());
  EXPECT_GE(br->device_bytes(),
            g.num_edge_labels() * (g.num_vertices() + 1) * sizeof(uint64_t));
}

}  // namespace
}  // namespace gsi
