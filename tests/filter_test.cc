// Filtering-phase tests: soundness of every strategy (no true match is
// pruned), relative pruning power, the layout/width cost claims, and the
// one-pass signature scan against a host oracle in every execution form.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <tuple>

#include "baselines/oracle.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/labeler.h"
#include "gsi/filter.h"
#include "gsi/matcher.h"
#include "gsi/replication.h"
#include "gsi/partition_internal.h"
#include "test_util.h"

namespace gsi {
namespace {

using ::gsi::testing::RandomGraph;
using ::gsi::testing::RandomHubGraph;
using ::gsi::testing::RandomQuery;
using ::gsi::testing::RandomQuerySet;
using gpusim::kWarpSize;

class FilterStrategySuite : public ::testing::TestWithParam<FilterStrategy> {
};

TEST_P(FilterStrategySuite, SoundNoTrueMatchPruned) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Graph data = RandomGraph(250, 3, 4, 4, seed);
    Graph query = RandomQuery(data, 4, seed + 100);
    gpusim::Device dev;
    FilterOptions fo;
    fo.strategy = GetParam();
    FilterContext ctx(dev, data, fo);
    Result<FilterResult> r = ctx.Filter(query);
    ASSERT_TRUE(r.ok());
    auto matches = EnumerateMatchesBruteForce(data, query);
    ASSERT_FALSE(matches.empty());
    for (const auto& m : matches) {
      for (VertexId u = 0; u < query.num_vertices(); ++u) {
        EXPECT_TRUE(r->candidates[u].ContainsHost(m[u]))
            << "strategy pruned a true match: u=" << u << " v=" << m[u];
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, FilterStrategySuite,
    ::testing::Values(FilterStrategy::kSignature,
                      FilterStrategy::kLabelDegreeNeighbor,
                      FilterStrategy::kLabelDegree),
    [](const auto& suite_info) {
      switch (suite_info.param) {
        case FilterStrategy::kSignature: return std::string("Signature");
        case FilterStrategy::kLabelDegreeNeighbor: return std::string("GpSM");
        case FilterStrategy::kLabelDegree: return std::string("GunrockSM");
      }
      return std::string("?");
    });

TEST(FilterPruning, SignatureNoWeakerThanLabelDegree) {
  // Table IV's headline: GSI's encoding produces candidate sets no larger
  // than (usually much smaller than) label/degree filtering.
  Graph data = RandomGraph(400, 4, 4, 8, 9);
  gpusim::Device dev;
  FilterOptions sig_opts;
  sig_opts.strategy = FilterStrategy::kSignature;
  FilterContext sig(dev, data, sig_opts);
  FilterOptions ld_opts;
  ld_opts.strategy = FilterStrategy::kLabelDegree;
  FilterContext ld(dev, data, ld_opts);
  size_t sig_smaller = 0;
  size_t total = 0;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Graph query = RandomQuery(data, 5, 200 + seed);
    auto rs = sig.Filter(query);
    auto rl = ld.Filter(query);
    ASSERT_TRUE(rs.ok() && rl.ok());
    for (VertexId u = 0; u < query.num_vertices(); ++u) {
      EXPECT_LE(rs->candidates[u].size(), rl->candidates[u].size());
      sig_smaller += rs->candidates[u].size() < rl->candidates[u].size();
      ++total;
    }
  }
  // Strictly stronger somewhere, not just equal everywhere.
  EXPECT_GT(sig_smaller, total / 4);
}

TEST(FilterWidth, WiderSignaturesPruneMore) {
  // Table V: increasing N monotonically (weakly) improves pruning.
  Graph data = RandomGraph(400, 4, 4, 16, 10);
  Graph query = RandomQuery(data, 5, 11);
  size_t prev = SIZE_MAX;
  for (int nbits : {64, 128, 256, 512}) {
    gpusim::Device dev;
    FilterOptions fo;
    fo.signature_bits = nbits;
    FilterContext ctx(dev, data, fo);
    auto r = ctx.Filter(query);
    ASSERT_TRUE(r.ok());
    size_t total = 0;
    for (const auto& c : r->candidates) total += c.size();
    EXPECT_LE(total, prev) << "N=" << nbits;
    prev = total;
  }
}

TEST(FilterLayout, ColumnMajorLoadsFewerTransactions) {
  Graph data = RandomGraph(2048, 3, 2, 4, 12);
  Graph query = RandomQuery(data, 4, 13);
  auto run = [&](SignatureTable::Layout layout) {
    gpusim::Device dev;
    FilterOptions fo;
    fo.layout = layout;
    fo.build_bitmaps = false;
    FilterContext ctx(dev, data, fo);
    uint64_t before = dev.stats().gld;
    auto r = ctx.Filter(query);
    EXPECT_TRUE(r.ok());
    return dev.stats().gld - before;
  };
  uint64_t col = run(SignatureTable::Layout::kColumnMajor);
  uint64_t row = run(SignatureTable::Layout::kRowMajor);
  EXPECT_LT(col * 4, row);  // coalescing should be a multi-x improvement
}

TEST(FilterResultApi, TracksMinimumCandidateSet) {
  Graph data = RandomGraph(300, 3, 6, 6, 14);
  Graph query = RandomQuery(data, 5, 15);
  gpusim::Device dev;
  FilterContext ctx(dev, data, FilterOptions{});
  auto r = ctx.Filter(query);
  ASSERT_TRUE(r.ok());
  size_t min_size = SIZE_MAX;
  for (const auto& c : r->candidates) min_size = std::min(min_size, c.size());
  EXPECT_EQ(r->min_candidate_size, min_size);
  EXPECT_EQ(r->candidates[r->min_candidate_vertex].size(), min_size);
}

// ------------------------------------------------ one-pass signature scan

Graph OneVertexQuery(Label label) {
  GraphBuilder b;
  b.AddVertex(label);
  return std::move(b).Build().value();
}

bool HasRepeatedLabel(const Graph& q) {
  for (VertexId a = 0; a < q.num_vertices(); ++a) {
    for (VertexId b = a + 1; b < q.num_vertices(); ++b) {
      if (q.vertex_label(a) == q.vertex_label(b)) return true;
    }
  }
  return false;
}

struct ScanInput {
  Graph data;
  std::vector<Graph> queries;
};

/// A scale-free graph whose vertex labels follow a steep power law
/// (Zipf exponent `alpha`): one bucket holds most rows, the rarest hold a
/// handful, and bucket edges fall anywhere inside the 32-row grid.
Graph LabelSkewedGraph(size_t n, size_t num_vlabels, double alpha,
                       uint64_t seed) {
  Rng rng(seed);
  std::vector<RawEdge> edges = GenerateScaleFree(n, 3, rng);
  LabelConfig lc;
  lc.num_vertex_labels = num_vlabels;
  lc.num_edge_labels = 3;
  lc.alpha = alpha;
  lc.seed = seed + 1;
  return AssignLabels(n, edges, lc).value();
}

/// Seeded scan inputs: a scale-free, a hub and two label-skewed graphs,
/// none a multiple of 32 vertices. Each gets random 5-vertex queries — on
/// the 2-label graph every one repeats a label — and a one-vertex query.
std::vector<ScanInput> ScanInputs() {
  std::vector<ScanInput> inputs;
  inputs.push_back({RandomGraph(1000, 3, 2, 3, 21), {}});
  inputs.push_back({RandomHubGraph(700, 3, 3, 4, 22, 2, 0.2), {}});
  inputs.push_back({LabelSkewedGraph(900, 6, 2.0, 24), {}});
  inputs.push_back({LabelSkewedGraph(1100, 12, 1.5, 25), {}});
  for (ScanInput& in : inputs) {
    in.queries = RandomQuerySet(in.data, 5, 3, 23);
    in.queries.push_back(OneVertexQuery(in.data.vertex_label(0)));
  }
  return inputs;
}

/// Host oracle: the data vertices whose signatures cover u's, ascending.
std::vector<VertexId> CoveringVertices(const Graph& data, const Graph& query,
                                       VertexId u, int nbits) {
  const Signature qsig = Signature::Encode(query, u, nbits);
  std::vector<VertexId> out;
  for (VertexId v = 0; v < data.num_vertices(); ++v) {
    if (Signature::Encode(data, v, nbits).Covers(qsig)) out.push_back(v);
  }
  return out;
}

std::vector<VertexId> HostList(const CandidateSet& c) {
  return {c.list().data(), c.list().data() + c.size()};
}

class SignatureScanSuite
    : public ::testing::TestWithParam<std::tuple<int, SignatureTable::Layout>> {
 protected:
  int nbits() const { return std::get<0>(GetParam()); }
  SignatureTable::Layout layout() const { return std::get<1>(GetParam()); }
  FilterOptions Options() const {
    FilterOptions fo;
    fo.signature_bits = nbits();
    fo.layout = layout();
    fo.build_bitmaps = false;
    return fo;
  }
};

TEST_P(SignatureScanSuite, ListsEqualHostCoversOracle) {
  size_t repeated = 0;
  for (const ScanInput& in : ScanInputs()) {
    gpusim::Device dev;
    FilterContext ctx(dev, in.data, Options());
    for (const Graph& q : in.queries) {
      repeated += HasRepeatedLabel(q);
      Result<FilterResult> r = ctx.Filter(q);
      ASSERT_TRUE(r.ok());
      for (VertexId u = 0; u < q.num_vertices(); ++u) {
        EXPECT_EQ(HostList(r->candidates[u]),
                  CoveringVertices(in.data, q, u, nbits()))
            << q.Summary() << " u=" << u;
      }
    }
  }
  EXPECT_GE(repeated, 3u);
}

TEST_P(SignatureScanSuite, AlignedSlicesSumToTheWholeScan) {
  for (const ScanInput& in : ScanInputs()) {
    gpusim::Device build_dev;
    FilterContext ctx(build_dev, in.data, Options());
    const SignatureTable table =
        SignatureTable::Build(build_dev, in.data, nbits(), layout());
    for (const Graph& q : in.queries) {
      gpusim::Device whole_dev;
      Result<FilterResult> whole = ctx.Filter(whole_dev, q);
      ASSERT_TRUE(whole.ok());
      EXPECT_EQ(whole_dev.stats().kernel_launches, 1u);
      const std::vector<Signature> qsigs = Signature::EncodeAll(q, nbits());
      const SignatureTable* const tables[] = {&table};
      const std::vector<ScanTile> tiles = ScanTiles(tables, qsigs);
      // Contiguous shares of the query's tile list, down to one tile each.
      for (size_t slices : {2, 3, 7, 1000}) {
        gpusim::Device sliced_dev;
        std::vector<std::vector<VertexId>> cat(q.num_vertices());
        uint64_t rows = 0;
        const size_t per = (tiles.size() + slices - 1) / slices;
        for (size_t s = 0; s < slices; ++s) {
          const size_t begin = std::min(tiles.size(), s * per);
          const size_t end = std::min(tiles.size(), begin + per);
          CandidateScan part = std::move(ScanSignatures(
              sliced_dev, tables, qsigs,
              std::span<const ScanTile>(tiles).subspan(begin, end - begin))[0]);
          for (VertexId u = 0; u < q.num_vertices(); ++u) {
            cat[u].insert(cat[u].end(), part.lists[u].begin(),
                          part.lists[u].end());
          }
          rows += part.rows_scanned;
        }
        const gpusim::MemStats& whole_mem = whole_dev.stats();
        const gpusim::MemStats& slice_mem = sliced_dev.stats();
        EXPECT_EQ(slice_mem.gld, whole_mem.gld) << "slices " << slices;
        EXPECT_EQ(slice_mem.gst, whole_mem.gst) << "slices " << slices;
        EXPECT_EQ(slice_mem.alu_ops, whole_mem.alu_ops) << "slices " << slices;
        EXPECT_EQ(slice_mem.shared_accesses, whole_mem.shared_accesses)
            << "slices " << slices;
        EXPECT_EQ(rows, whole->rows_scanned) << "slices " << slices;
        for (VertexId u = 0; u < q.num_vertices(); ++u) {
          EXPECT_EQ(cat[u], HostList(whole->candidates[u]))
              << "slices " << slices << " u=" << u;
        }
      }
    }
  }
}

TEST_P(SignatureScanSuite, OwnedScansMergeToTheWholeLists) {
  GsiOptions options = GsiOptOptions();
  options.filter.signature_bits = nbits();
  options.filter.layout = layout();
  for (const ScanInput& in : ScanInputs()) {
    std::vector<std::unique_ptr<gpusim::Device>> owned_devs;
    std::vector<gpusim::Device*> devs;
    for (int i = 0; i < 3; ++i) {
      owned_devs.push_back(std::make_unique<gpusim::Device>());
      devs.push_back(owned_devs.back().get());
    }
    Result<ReplicatedGraph> pg = ReplicatedGraph::Build(
        devs, in.data, options, HashVertexPartitioner(), /*partitions=*/3,
        /*replicas=*/1);
    ASSERT_TRUE(pg.ok());
    for (const Graph& q : in.queries) {
      const std::vector<Signature> qsigs = Signature::EncodeAll(q, nbits());
      std::vector<std::vector<std::vector<VertexId>>> partial;
      for (PartitionId p = 0; p < pg->num_partitions(); ++p) {
        const SignatureTable* const share[] = {&pg->signatures(p)};
        partial.push_back(ScanSignatures(pg->device(p), share, qsigs,
                                         ScanTiles(share, qsigs))[0]
                              .lists);
      }
      for (VertexId u = 0; u < q.num_vertices(); ++u) {
        std::vector<const std::vector<VertexId>*> lists;
        for (const auto& lists_of_p : partial) lists.push_back(&lists_of_p[u]);
        EXPECT_EQ(internal::MergeAscendingDisjoint(lists),
                  CoveringVertices(in.data, q, u, nbits()))
            << q.Summary() << " u=" << u;
      }
    }
  }
}

TEST_P(SignatureScanSuite, OneLaunchOverManyTablesEqualsOneLaunchPerTable) {
  GsiOptions options = GsiOptOptions();
  options.filter.signature_bits = nbits();
  options.filter.layout = layout();
  for (const ScanInput& in : ScanInputs()) {
    std::vector<std::unique_ptr<gpusim::Device>> owned_devs;
    std::vector<gpusim::Device*> devs;
    for (int i = 0; i < 3; ++i) {
      owned_devs.push_back(std::make_unique<gpusim::Device>());
      devs.push_back(owned_devs.back().get());
    }
    Result<ReplicatedGraph> pg = ReplicatedGraph::Build(
        devs, in.data, options, HashVertexPartitioner(), /*partitions=*/3,
        /*replicas=*/1);
    ASSERT_TRUE(pg.ok());
    std::vector<const SignatureTable*> tables;
    for (PartitionId p = 0; p < pg->num_partitions(); ++p) {
      tables.push_back(&pg->signatures(p));
    }
    for (const Graph& q : in.queries) {
      const std::vector<Signature> qsigs = Signature::EncodeAll(q, nbits());
      gpusim::Device one_dev;
      const std::vector<CandidateScan> together =
          ScanSignatures(one_dev, tables, qsigs, ScanTiles(tables, qsigs));
      ASSERT_EQ(together.size(), tables.size());
      EXPECT_LE(one_dev.stats().kernel_launches, 1u);
      gpusim::Device per_dev;
      for (size_t i = 0; i < tables.size(); ++i) {
        const std::span<const SignatureTable* const> alone(&tables[i], 1);
        const CandidateScan scan = std::move(
            ScanSignatures(per_dev, alone, qsigs, ScanTiles(alone, qsigs))[0]);
        EXPECT_EQ(together[i].lists, scan.lists) << q.Summary() << " " << i;
        EXPECT_EQ(together[i].rows_scanned, scan.rows_scanned) << i;
      }
      const gpusim::MemStats& a = one_dev.stats();
      const gpusim::MemStats& b = per_dev.stats();
      EXPECT_EQ(a.gld, b.gld) << q.Summary();
      EXPECT_EQ(a.gst, b.gst) << q.Summary();
      EXPECT_EQ(a.shared_accesses, b.shared_accesses) << q.Summary();
      EXPECT_EQ(a.alu_ops, b.alu_ops) << q.Summary();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndLayouts, SignatureScanSuite,
    ::testing::Combine(::testing::Values(64, 128, 256, 512),
                       ::testing::Values(SignatureTable::Layout::kColumnMajor,
                                         SignatureTable::Layout::kRowMajor)),
    [](const auto& param_info) {
      std::string name = std::to_string(std::get<0>(param_info.param));
      name += std::get<1>(param_info.param) ==
                      SignatureTable::Layout::kColumnMajor
                  ? "bits_ColumnMajor"
                  : "bits_RowMajor";
      return name;
    });

/// Counters of a bitmaps-off filter of `query` on a fresh context over
/// `data`.
gpusim::MemStats FilterCost(const Graph& data, const Graph& query,
                            int nbits) {
  gpusim::Device dev;
  FilterOptions fo;
  fo.signature_bits = nbits;
  fo.build_bitmaps = false;
  FilterContext ctx(dev, data, fo);
  const gpusim::MemStats before = dev.stats();
  EXPECT_TRUE(ctx.Filter(query).ok());
  return dev.stats() - before;
}

TEST(SignatureScanCost, OneVertexQueryLoadsOneTransactionPerWarp) {
  // A one-label query issues exactly its bucket's grid tiles. A one-vertex
  // query has no neighbours, so its words 1.. are zero and constrain
  // nothing: every row of its label's bucket survives. Each tile is one
  // warp that reads only its slice of the row map (one 128B line: a tile
  // never crosses a 32-row grid cell) and stores its survivors — a word-0
  // read would add one more line per tile.
  for (size_t n : {1000, 1024}) {
    Graph data = RandomGraph(n, 3, 4, 3, 31);
    gpusim::Device dev;
    for (int nbits : {64, 128, 256, 512}) {
      SignatureTable table = SignatureTable::Build(dev, data, nbits);
      for (Label l = 0; l < 4; ++l) {
        const Graph q = OneVertexQuery(l);
        const SignatureTable* const tables[] = {&table};
        const std::vector<ScanTile> tiles =
            ScanTiles(tables, Signature::EncodeAll(q, nbits));
        // The bucket's rows, cut at every multiple of 32 and nowhere else.
        const SignatureTable::RowRange rows = table.LabelRows(l);
        ASSERT_EQ(rows.size(), data.VertexLabelFrequency(l));
        size_t expect_begin = rows.begin;
        for (const ScanTile& t : tiles) {
          EXPECT_EQ(t.label, l);
          EXPECT_EQ(t.row_begin, expect_begin);
          EXPECT_EQ(t.row_begin / kWarpSize, (t.row_end - 1) / kWarpSize);
          EXPECT_TRUE(t.row_end == rows.end || t.row_end % kWarpSize == 0);
          expect_begin = t.row_end;
        }
        EXPECT_EQ(expect_begin, rows.end);

        const gpusim::MemStats used = FilterCost(data, q, nbits);
        EXPECT_EQ(used.kernel_launches, 1u);
        EXPECT_EQ(used.gld, tiles.size()) << "n=" << n << " N=" << nbits;
        EXPECT_EQ(used.gst, tiles.size()) << "n=" << n << " N=" << nbits;
      }
    }
  }
}

TEST(SignatureScanCost, AbsentQueryLabelGivesEmptyListAndOneLaunch) {
  // No bucket, no tile: the scan launches nothing and the one launch is
  // the bitset kernel over the empty list.
  Graph data = RandomGraph(1000, 3, 4, 3, 32);
  gpusim::Device dev;
  FilterContext ctx(dev, data, FilterOptions());
  const gpusim::MemStats before = dev.stats();
  Result<FilterResult> r = ctx.Filter(OneVertexQuery(4));
  ASSERT_TRUE(r.ok());
  const gpusim::MemStats used = dev.stats() - before;
  EXPECT_TRUE(r->candidates[0].empty());
  EXPECT_EQ(r->rows_scanned, 0u);
  EXPECT_EQ(used.kernel_launches, 1u);
  EXPECT_EQ(used.gld, 0u);
}

TEST(SignatureScanCost, ReadsEachColumnAtMostOncePerWarp) {
  // A tile lies inside one 32-row grid cell; with 1024 rows every column
  // starts on a 128B line, so a warp's read of one word or of the row map
  // is one transaction, and no query size can make a tile read more than
  // words 1..15 and the row map once each.
  Graph data = RandomGraph(1024, 4, 2, 2, 33);
  gpusim::Device dev;
  FilterOptions fo;
  fo.build_bitmaps = false;
  FilterContext ctx(dev, data, fo);
  SignatureTable table = SignatureTable::Build(dev, data, kMaxSignatureBits);
  const SignatureTable* const tables[] = {&table};
  for (const Graph& q : RandomQuerySet(data, 8, 4, 34)) {
    const size_t tiles =
        ScanTiles(tables, Signature::EncodeAll(q, kMaxSignatureBits)).size();
    const gpusim::MemStats before = dev.stats();
    ASSERT_TRUE(ctx.Filter(q).ok());
    EXPECT_LE((dev.stats() - before).gld, tiles * kSignatureWords);
  }
}

TEST(SignatureScanCost, BitmapsOnFilterLaunchesTwoKernels) {
  // The scan is one kernel and the bitsets of every query vertex are one
  // more, whatever the query size.
  Graph data = RandomGraph(1000, 3, 4, 3, 35);
  gpusim::Device dev;
  FilterContext ctx(dev, data, FilterOptions());
  std::vector<Graph> queries = {OneVertexQuery(data.vertex_label(0))};
  for (size_t nv : {2, 4, 8}) {
    for (Graph& q : RandomQuerySet(data, nv, 2, 36 + nv)) {
      queries.push_back(std::move(q));
    }
  }
  for (const Graph& q : queries) {
    const gpusim::MemStats before = dev.stats();
    ASSERT_TRUE(ctx.Filter(q).ok());
    EXPECT_EQ((dev.stats() - before).kernel_launches, 2u)
        << "|V(Q)|=" << q.num_vertices();
  }
}

/// Probes every vertex of [0, n) against `c`, 32 lanes at a time, and
/// checks each answer against the sorted list.
void ExpectBitsetMatchesList(gpusim::Device& dev, const CandidateSet& c,
                             size_t n) {
  gpusim::Launch(dev, 1, [&](gpusim::Warp& w) {
    for (size_t v0 = 0; v0 < n; v0 += kWarpSize) {
      VertexId vs[kWarpSize];
      const size_t lanes = std::min<size_t>(kWarpSize, n - v0);
      for (size_t k = 0; k < lanes; ++k) {
        vs[k] = static_cast<VertexId>(v0 + k);
      }
      const uint32_t hits = c.ProbeBitset(w, {vs, lanes});
      for (size_t k = 0; k < lanes; ++k) {
        ASSERT_EQ(((hits >> k) & 1u) != 0, c.ContainsHost(vs[k]))
            << "u=" << c.query_vertex() << " v=" << vs[k];
      }
      if (lanes < kWarpSize) {
        EXPECT_EQ(hits >> lanes, 0u);
      }
    }
  });
}

TEST(CandidateSetTest, OneKernelBuildsEveryBitset) {
  Rng rng(41);
  for (size_t n : {1, 31, 1000, 3001, 5000}) {
    // An empty list, a full one, dense runs across 32- and 1024-id
    // boundaries, and random subsets.
    std::vector<std::vector<VertexId>> lists(6);
    for (VertexId v = 0; v < n; ++v) lists[1].push_back(v);
    for (VertexId v = 1000; v < std::min<size_t>(n, 1100); ++v) {
      lists[2].push_back(v);
    }
    for (VertexId v = 20; v < std::min<size_t>(n, 45); ++v) {
      lists[3].push_back(v);
    }
    for (size_t i = 4; i < lists.size(); ++i) {
      for (VertexId v = 0; v < n; ++v) {
        if (rng.NextBounded(4) == 0) lists[i].push_back(v);
      }
    }
    // The build loads each 32-candidate tile (one 128B line) and stores
    // the distinct bitmap lines its words fall in.
    uint64_t tiles = 0;
    uint64_t lines_stored = 0;
    for (const std::vector<VertexId>& list : lists) {
      for (size_t t = 0; t < list.size(); t += kWarpSize) {
        std::set<VertexId> lines;
        for (size_t k = t; k < std::min(list.size(), t + kWarpSize); ++k) {
          lines.insert(list[k] / 1024);
        }
        ++tiles;
        lines_stored += lines.size();
      }
    }
    gpusim::Device dev;
    std::vector<CandidateSet> sets = CandidateSet::Create(dev, lists, n, true);
    const gpusim::MemStats build = dev.stats();
    EXPECT_EQ(build.kernel_launches, 1u) << "n=" << n;
    EXPECT_EQ(build.gld, tiles) << "n=" << n;
    EXPECT_EQ(build.gst, lines_stored) << "n=" << n;
    ASSERT_EQ(sets.size(), lists.size());
    for (VertexId u = 0; u < sets.size(); ++u) {
      EXPECT_EQ(sets[u].query_vertex(), u);
      EXPECT_TRUE(std::equal(lists[u].begin(), lists[u].end(),
                             sets[u].list().data(),
                             sets[u].list().data() + sets[u].size()));
      ExpectBitsetMatchesList(dev, sets[u], n);
    }
  }
}

TEST(CandidateSetTest, BitsetAndListAgree) {
  Graph data = RandomGraph(200, 3, 3, 3, 16);
  gpusim::Device dev;
  std::vector<VertexId> list = {3, 17, 60, 61, 199};
  CandidateSet c = std::move(CandidateSet::Create(
      dev, {list}, data.num_vertices(), /*build_bitmaps=*/true)[0]);
  ExpectBitsetMatchesList(dev, c, data.num_vertices());
  gpusim::Launch(dev, 1, [&](gpusim::Warp& w) {
    for (VertexId v = 0; v < 200; ++v) {
      bool expect = std::binary_search(list.begin(), list.end(), v);
      EXPECT_EQ(c.ContainsBinarySearch(w, v), expect);
      EXPECT_EQ(c.ContainsHost(v), expect);
    }
  });
}

/// gld of one warp probing `vs` against a one-candidate bitset over
/// |V| = 100000.
uint64_t ProbeGld(std::span<const VertexId> vs) {
  gpusim::Device dev;
  CandidateSet c =
      std::move(CandidateSet::Create(dev, {{5}}, 100000, true)[0]);
  dev.ResetStats();
  gpusim::Launch(dev, 1, [&](gpusim::Warp& w) { c.ProbeBitset(w, vs); });
  return dev.stats().gld;
}

TEST(CandidateSetTest, BitsetProbeIsOneTransaction) {
  // "Exactly one memory transaction", even for a lone lane.
  const VertexId v = 99999;
  EXPECT_EQ(ProbeGld({&v, 1}), 1u);
}

TEST(CandidateSetTest, WarpProbeCostsDistinctLines) {
  // One 128B line holds the words of 1024 consecutive ids.
  VertexId near[kWarpSize];
  VertexId far[kWarpSize];
  for (size_t k = 0; k < kWarpSize; ++k) {
    near[k] = static_cast<VertexId>(2048 + 31 * k);
    far[k] = static_cast<VertexId>(1024 * k + 7);
  }
  EXPECT_EQ(ProbeGld(near), 1u);
  EXPECT_EQ(ProbeGld(far), 32u);
}

// Staging reserves the bitset's bytes in the block's arena, and the
// block's warps take its 128B lines in turn: one load transaction and one
// warp-wide shared store per line, charged per word. Probes of the staged
// copy load nothing and answer what the gather answers.
TEST(CandidateSetTest, StagedBitsetCostsOneLoadAndOneSharedStorePerLine) {
  gpusim::Device dev;
  // 5000 ids: 157 bitmap words, 628 B, 5 lines (the last one partial).
  const CandidateSet c = std::move(
      CandidateSet::Create(dev, {{3, 1024, 2047, 4999}}, 5000, true)[0]);
  EXPECT_EQ(c.bitset_bytes(), 628u);
  EXPECT_EQ(c.bitset_lines(), 5u);
  dev.ResetStats();
  gpusim::LaunchBlocks(dev, 1, [&](gpusim::Block& block) {
    c.StageBitset(block);
    EXPECT_EQ(block.shared().used_bytes(), 628u);
    for (size_t i = 0; i < block.num_warps(); ++i) {
      EXPECT_EQ(block.warp(i).cycles() > 0, i < 5) << "warp " << i;
    }
    const gpusim::MemStats staged = dev.stats();
    EXPECT_EQ(staged.gld, 5u);
    EXPECT_EQ(staged.shared_accesses, 157u);

    VertexId far[kWarpSize];
    for (size_t k = 0; k < kWarpSize; ++k) {
      far[k] = static_cast<VertexId>((1023 + 31 * k) % 5000);
    }
    uint32_t want = 0;
    for (size_t k = 0; k < kWarpSize; ++k) {
      want |= static_cast<uint32_t>(c.ContainsHost(far[k])) << k;
    }
    EXPECT_EQ(c.ProbeStaged(block.warp(0), far), want);
    EXPECT_EQ(c.ProbeBitset(block.warp(1), far), want);
    const gpusim::MemStats probes = dev.stats() - staged;
    EXPECT_EQ(probes.gld, 2u);  // the gather's lines only
    EXPECT_EQ(probes.shared_accesses, static_cast<uint64_t>(kWarpSize));
  });
}

}  // namespace
}  // namespace gsi
