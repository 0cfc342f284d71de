// Unit tests for the join engine's building blocks: set operations, GBA
// writes, chunk planning (load balance), the duplicate-removal cache and
// the match table.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>

#include "gpusim/launch.h"
#include "gsi/candidates.h"
#include "gsi/dup_removal.h"
#include "gsi/load_balance.h"
#include "gsi/match_table.h"
#include "gsi/matcher.h"
#include "gsi/set_ops.h"
#include "test_util.h"

namespace gsi {
namespace {

template <typename Fn>
void WithWarp(gpusim::Device& dev, Fn&& fn) {
  gpusim::Launch(dev, 1, [&](gpusim::Warp& w) { fn(w); });
}

// ------------------------------------------------------------- set ops ---

/// Sorted random list of `n` values drawn from [0, range).
std::vector<VertexId> SortedRandom(size_t n, uint32_t range, uint64_t seed) {
  Rng rng(seed);
  std::set<VertexId> vals;
  while (vals.size() < n) {
    vals.insert(static_cast<VertexId>(rng.NextBounded(range)));
  }
  return std::vector<VertexId>(vals.begin(), vals.end());
}

TEST(SetOps, FirstEdgeSubtractsRowAndFiltersCandidates) {
  gpusim::Device dev;
  CandidateSet cand =
      std::move(CandidateSet::Create(dev, {{2, 4, 6, 8}}, 100, true)[0]);
  std::vector<VertexId> input = {1, 2, 3, 4, 5, 6};
  std::vector<VertexId> row = {4, 9};
  auto gba = dev.Alloc<VertexId>(16);
  std::vector<VertexId> members;
  std::vector<VertexId> result;
  WithWarp(dev, [&](gpusim::Warp& w) {
    FilterMembers(w, input, cand, /*staged=*/false, members);
    size_t n = SubtractRow(w, members, row, /*write_cache=*/true, &gba, 3,
                           result);
    EXPECT_EQ(n, 2u);
  });
  EXPECT_EQ(members, (std::vector<VertexId>{2, 4, 6}));
  EXPECT_EQ(result, (std::vector<VertexId>{2, 6}));  // 4 is in the row
  EXPECT_EQ(gba[3], 2u);
  EXPECT_EQ(gba[4], 6u);
}

// The naive baseline subtracts the row before its binary searches; the
// GPU-friendly mode tests membership first and subtracts the row from the
// members. Rows bind vertices of C(u) that the slice holds, so the
// subtraction removes members the membership test kept.
// A block that staged C(u)'s bitset probes the shared copy: the same
// members in the same order as the gather, no global load, and one shared
// access more per element (its probe) at the same ALU work.
TEST(SetOps, StagedFilterMembersMatchesTheGatherWithoutLoads) {
  gpusim::Device dev;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<VertexId> input =
        SortedRandom(100 + 7 * seed, 3000, seed);
    const CandidateSet cand = std::move(CandidateSet::Create(
        dev, {SortedRandom(1500, 3000, seed + 10)}, 3000, true)[0]);
    std::vector<VertexId> want;
    for (VertexId x : input) {
      if (cand.ContainsHost(x)) want.push_back(x);
    }
    std::vector<VertexId> members[2];  // unstaged, staged
    gpusim::MemStats cost[2];
    for (bool staged : {false, true}) {
      WithWarp(dev, [&](gpusim::Warp& w) {
        const gpusim::MemStats before = dev.stats();
        FilterMembers(w, input, cand, staged, members[staged]);
        cost[staged] = dev.stats() - before;
      });
    }
    EXPECT_EQ(members[0], want) << "seed " << seed;
    EXPECT_EQ(members[1], want) << "seed " << seed;
    EXPECT_GT(cost[0].gld, 0u) << "seed " << seed;
    EXPECT_EQ(cost[1].gld, 0u) << "seed " << seed;
    EXPECT_EQ(cost[1].shared_accesses,
              cost[0].shared_accesses + input.size())
        << "seed " << seed;
    EXPECT_EQ(cost[1].alu_ops, cost[0].alu_ops) << "seed " << seed;
  }
}

TEST(SetOps, FirstEdgeNaiveMatchesBitsetSemantics) {
  gpusim::Device dev;
  auto members_then_subtract = [&](gpusim::Warp& w,
                                   std::span<const VertexId> input,
                                   std::span<const VertexId> row,
                                   const CandidateSet& cand) {
    std::vector<VertexId> members;
    std::vector<VertexId> result;
    FilterMembers(w, input, cand, /*staged=*/false, members);
    SubtractRow(w, members, row, /*write_cache=*/true, nullptr, 0, result);
    return result;
  };
  CandidateSet cand =
      std::move(CandidateSet::Create(dev, {{1, 5, 7, 11, 13}}, 64, true)[0]);
  std::vector<VertexId> input = {1, 2, 5, 7, 8, 11, 13};
  std::vector<VertexId> row = {7};
  std::vector<VertexId> fast;
  std::vector<VertexId> naive;
  WithWarp(dev, [&](gpusim::Warp& w) {
    fast = members_then_subtract(w, input, row, cand);
    FilterFirstEdge(w, input, row, cand, nullptr, 0, naive);
  });
  EXPECT_EQ(fast, naive);
  EXPECT_EQ(fast, (std::vector<VertexId>{1, 5, 11, 13}));

  // Slices longer than a warp probe the bitset 32 elements at a time; the
  // survivors still come out in input order.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    input = SortedRandom(100 + 7 * seed, 3000, seed);
    CandidateSet big = std::move(CandidateSet::Create(
        dev, {SortedRandom(1500, 3000, seed + 10)}, 3000, true)[0]);
    std::vector<VertexId> in_both;
    for (VertexId x : input) {
      if (big.ContainsHost(x)) in_both.push_back(x);
    }
    ASSERT_GE(in_both.size(), 3u) << "seed " << seed;
    row = {in_both[0], in_both[in_both.size() / 2], in_both.back()};
    std::vector<VertexId> expected;
    for (VertexId x : input) {
      if (std::find(row.begin(), row.end(), x) == row.end() &&
          big.ContainsHost(x)) {
        expected.push_back(x);
      }
    }
    ASSERT_EQ(expected.size(), in_both.size() - 3) << "seed " << seed;
    naive.clear();
    WithWarp(dev, [&](gpusim::Warp& w) {
      fast = members_then_subtract(w, input, row, big);
      FilterFirstEdge(w, input, row, big, nullptr, 0, naive);
    });
    EXPECT_EQ(fast, expected) << "seed " << seed;
    EXPECT_EQ(naive, expected) << "seed " << seed;
  }
}

TEST(SetOps, IntersectSortedKeepsCommonElements) {
  gpusim::Device dev;
  std::vector<VertexId> current = {1, 3, 5, 7, 9};
  std::vector<VertexId> other = {0, 3, 4, 7, 10};
  WithWarp(dev, [&](gpusim::Warp& w) {
    SetOpFlags f;
    size_t n = IntersectSorted(w, current, other, f, nullptr, 0);
    EXPECT_EQ(n, 2u);
  });
  EXPECT_EQ(current, (std::vector<VertexId>{3, 7}));
}

TEST(SetOps, IntersectWithEmptyIsEmpty) {
  gpusim::Device dev;
  std::vector<VertexId> current = {1, 2, 3};
  WithWarp(dev, [&](gpusim::Warp& w) {
    SetOpFlags f;
    EXPECT_EQ(IntersectSorted(w, current, {}, f, nullptr, 0), 0u);
  });
  EXPECT_TRUE(current.empty());
}

TEST(SetOps, GallopingMatchesMergeOnRandomInputs) {
  // The size ratio picks the path: >kGallopRatio gallops the longer list,
  // otherwise a linear merge runs. Both must produce the intersection.
  gpusim::Device dev;
  struct Shape {
    size_t current;
    size_t other;
  };
  for (const Shape& shape : {Shape{12, 3000}, Shape{3000, 12},
                             Shape{500, 500}, Shape{1, 2000},
                             Shape{2000, 1}, Shape{64, 65}}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      std::vector<VertexId> current =
          SortedRandom(shape.current, 5000, seed * 2);
      std::vector<VertexId> other =
          SortedRandom(shape.other, 5000, seed * 2 + 1);
      std::vector<VertexId> expected;
      std::set_intersection(current.begin(), current.end(), other.begin(),
                            other.end(), std::back_inserter(expected));
      WithWarp(dev, [&](gpusim::Warp& w) {
        SetOpFlags f;
        size_t n = IntersectSorted(w, current, other, f, nullptr, 0);
        EXPECT_EQ(n, expected.size());
      });
      EXPECT_EQ(current, expected)
          << shape.current << "x" << shape.other << " seed " << seed;
    }
  }
}

TEST(SetOps, GallopingChargesLessThanAFullMerge) {
  // A tiny probe list against a huge neighbor list must not pay for
  // streaming the huge list (the merge path's |current| + |other| ALU ops).
  gpusim::Device dev;
  std::vector<VertexId> other(100000);
  for (size_t i = 0; i < other.size(); ++i) {
    other[i] = static_cast<VertexId>(2 * i);
  }
  std::vector<VertexId> current = {4, 400, 40000, 40001};
  const size_t merge_cost = current.size() + other.size();
  uint64_t alu = 0;
  WithWarp(dev, [&](gpusim::Warp& w) {
    SetOpFlags f;
    uint64_t before = dev.stats().alu_ops;
    IntersectSorted(w, current, other, f, nullptr, 0);
    alu = dev.stats().alu_ops - before;
  });
  EXPECT_EQ(current, (std::vector<VertexId>{4, 400, 40000}));
  EXPECT_LT(alu, merge_cost / 100);  // orders of magnitude, not epsilon
}

TEST(SetOps, NaiveModeNeverGallops) {
  // The naive baseline models one kernel per whole-list operation; its
  // charge must stay the full linear merge even on skewed sizes.
  gpusim::Device dev;
  std::vector<VertexId> other(10000);
  for (size_t i = 0; i < other.size(); ++i) {
    other[i] = static_cast<VertexId>(i);
  }
  std::vector<VertexId> current = {5, 7};
  uint64_t alu = 0;
  WithWarp(dev, [&](gpusim::Warp& w) {
    SetOpFlags f;
    f.naive = true;
    uint64_t before = dev.stats().alu_ops;
    IntersectSorted(w, current, other, f, nullptr, 0);
    alu = dev.stats().alu_ops - before;
  });
  EXPECT_EQ(current, (std::vector<VertexId>{5, 7}));
  EXPECT_EQ(alu, 2u + 10000u);
}

TEST(SetOps, WriteCacheUsesFewerStoreTransactions) {
  gpusim::Device dev;
  auto gba = dev.Alloc<VertexId>(256);
  std::vector<VertexId> values(100);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<VertexId>(i);
  }
  uint64_t cached = 0;
  uint64_t uncached = 0;
  WithWarp(dev, [&](gpusim::Warp& w) {
    uint64_t before = dev.stats().gst;
    WriteToGba(w, values, /*write_cache=*/true, gba, 0);
    cached = dev.stats().gst - before;
    before = dev.stats().gst;
    WriteToGba(w, values, /*write_cache=*/false, gba, 0);
    uncached = dev.stats().gst - before;
  });
  EXPECT_EQ(cached, 4u);     // 100 values = 4 cache flushes (32/flush)
  EXPECT_EQ(uncached, 100u); // one transaction per value
  for (size_t i = 0; i < values.size(); ++i) EXPECT_EQ(gba[i], values[i]);
}

// ------------------------------------------------------- chunk planning ---

TEST(ChunkPlanning, NoLoadBalanceOneChunkPerRow) {
  std::vector<uint32_t> bounds = {10, 0, 5000, 7};
  std::vector<uint64_t> offsets = {0, 10, 10, 5010, 5017};
  ChunkPlan plan = PlanChunks(bounds, offsets, false, 4096, 1024, 256);
  EXPECT_TRUE(plan.huge.empty());
  EXPECT_TRUE(plan.per_block.empty());
  ASSERT_EQ(plan.pooled.size(), 4u);
  EXPECT_EQ(plan.pooled[2].pos_end, 5000u);
  EXPECT_EQ(plan.pooled[2].gba_begin, 10u);
}

TEST(ChunkPlanning, FourLayerClassification) {
  // bounds: tiny (layer 4), pooled-split (3), per-block (2), huge (1).
  std::vector<uint32_t> bounds = {100, 600, 2000, 9000};
  std::vector<uint64_t> offsets = {0, 100, 700, 2700, 11700};
  ChunkPlan plan = PlanChunks(bounds, offsets, true, 4096, 1024, 256);
  ASSERT_EQ(plan.huge.size(), 1u);             // the 9000 row
  EXPECT_EQ(plan.huge[0].size(), (9000 + 255) / 256);
  ASSERT_EQ(plan.per_block.size(), 1u);        // the 2000 row
  EXPECT_EQ(plan.per_block[0].size(), (2000 + 255) / 256);
  // pooled: the 100 row as one chunk + the 600 row in 256-chunks.
  EXPECT_EQ(plan.pooled.size(), 1u + (600 + 255) / 256);
  // Chunk positions tile each row exactly.
  uint32_t covered = 0;
  for (const Chunk& c : plan.huge[0]) {
    EXPECT_EQ(c.pos_begin, covered);
    covered = c.pos_end;
    EXPECT_EQ(c.gba_begin, offsets[3] + c.pos_begin);
  }
  EXPECT_EQ(covered, 9000u);
}

TEST(ChunkPlanning, EmptyBoundsYieldEmptyPlan) {
  std::vector<uint64_t> offsets = {0};
  for (bool lb : {false, true}) {
    ChunkPlan plan = PlanChunks({}, offsets, lb, 4096, 1024, 256);
    EXPECT_TRUE(plan.huge.empty());
    EXPECT_TRUE(plan.per_block.empty());
    EXPECT_TRUE(plan.pooled.empty());
    EXPECT_EQ(plan.total_chunks(), 0u);
    EXPECT_TRUE(plan.AllChunks().empty());
  }
}

TEST(ChunkPlanning, SingleAllHeavyRowGetsItsOwnKernel) {
  // One row carries the entire workload: layer 1, W3-sized chunks tiling it.
  std::vector<uint32_t> bounds = {100000};
  std::vector<uint64_t> offsets = {0, 100000};
  ChunkPlan plan = PlanChunks(bounds, offsets, true, 4096, 1024, 256);
  EXPECT_TRUE(plan.pooled.empty());
  EXPECT_TRUE(plan.per_block.empty());
  ASSERT_EQ(plan.huge.size(), 1u);
  EXPECT_EQ(plan.huge[0].size(), (100000 + 255) / 256);
  uint32_t covered = 0;
  for (const Chunk& c : plan.huge[0]) {
    EXPECT_EQ(c.row, 0u);
    EXPECT_EQ(c.pos_begin, covered);
    covered = c.pos_end;
  }
  EXPECT_EQ(covered, 100000u);
}

TEST(ChunkPlanning, W3AboveEveryBoundKeepsRowsWhole) {
  // W3 larger than every row's workload: nothing is split, every row is a
  // single layer-4 chunk.
  std::vector<uint32_t> bounds = {33, 100, 400};
  std::vector<uint64_t> offsets = {0, 33, 133, 533};
  ChunkPlan plan = PlanChunks(bounds, offsets, true, 4096, 1024, 512);
  EXPECT_TRUE(plan.huge.empty());
  EXPECT_TRUE(plan.per_block.empty());
  ASSERT_EQ(plan.pooled.size(), 3u);
  for (size_t i = 0; i < plan.pooled.size(); ++i) {
    EXPECT_EQ(plan.pooled[i].row, i);
    EXPECT_EQ(plan.pooled[i].pos_begin, 0u);
    EXPECT_EQ(plan.pooled[i].pos_end, bounds[i]);
    EXPECT_EQ(plan.pooled[i].gba_begin, offsets[i]);
  }
}

TEST(ChunkPlanning, ZeroBoundRowsStillGetAChunk) {
  std::vector<uint32_t> bounds = {0, 0};
  std::vector<uint64_t> offsets = {0, 0, 0};
  ChunkPlan plan = PlanChunks(bounds, offsets, true, 4096, 1024, 256);
  EXPECT_EQ(plan.pooled.size(), 2u);
  EXPECT_EQ(plan.total_chunks(), 2u);
}

TEST(ChunkPlanning, AllChunksCoversEverything) {
  std::vector<uint32_t> bounds = {100, 2000, 9000, 50};
  std::vector<uint64_t> offsets = {0, 100, 2100, 11100, 11150};
  ChunkPlan plan = PlanChunks(bounds, offsets, true, 4096, 1024, 256);
  EXPECT_EQ(plan.AllChunks().size(), plan.total_chunks());
}

// --------------------------------------------------- duplicate removal ---

TEST(DupRemoval, SecondReadOfSameListIsShared) {
  Graph g = ::gsi::testing::RandomGraph(200, 4, 2, 2, 3);
  gpusim::Device dev;
  auto store = BuildStore(dev, g, StorageKind::kPcsr, 16);
  Label l = g.edge_labels()[0];
  VertexId v = 0;
  while (g.NeighborsWithLabel(v, l).empty()) ++v;

  BlockExtractionCache cache(/*enabled=*/true);
  WithWarp(dev, [&](gpusim::Warp& w) {
    uint64_t before = dev.stats().gld;
    const auto& first = cache.GetSlice(w, *store, v, l, 0, 1u << 20);
    uint64_t first_loads = dev.stats().gld - before;
    EXPECT_GT(first_loads, 0u);
    std::vector<VertexId> copy = first;

    before = dev.stats().gld;
    const auto& second = cache.GetSlice(w, *store, v, l, 0, 1u << 20);
    EXPECT_EQ(dev.stats().gld - before, 0u);  // shared via shared memory
    EXPECT_EQ(second, copy);
  });
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(DupRemoval, DisabledCacheAlwaysReloads) {
  Graph g = ::gsi::testing::RandomGraph(200, 4, 2, 2, 4);
  gpusim::Device dev;
  auto store = BuildStore(dev, g, StorageKind::kPcsr, 16);
  Label l = g.edge_labels()[0];
  BlockExtractionCache cache(/*enabled=*/false);
  WithWarp(dev, [&](gpusim::Warp& w) {
    cache.GetSlice(w, *store, 0, l, 0, 100);
    uint64_t before = dev.stats().gld;
    cache.GetSlice(w, *store, 0, l, 0, 100);
    EXPECT_GT(dev.stats().gld - before, 0u);
  });
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(DupRemoval, DifferentSlicesAreNotShared) {
  Graph g = ::gsi::testing::RandomGraph(200, 6, 2, 1, 5);
  gpusim::Device dev;
  auto store = BuildStore(dev, g, StorageKind::kPcsr, 16);
  Label l = g.edge_labels()[0];
  VertexId v = 0;
  while (g.NeighborsWithLabel(v, l).size() < 4) ++v;
  BlockExtractionCache cache(true);
  WithWarp(dev, [&](gpusim::Warp& w) {
    cache.GetSlice(w, *store, v, l, 0, 2);
    cache.GetSlice(w, *store, v, l, 2, 4);
  });
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
}

// Each Pass A block builds its own cache: the block boundary.
TEST(DupRemoval, CachesOfTwoBlocksShareNothing) {
  Graph g = ::gsi::testing::RandomGraph(100, 3, 2, 2, 6);
  gpusim::Device dev;
  auto store = BuildStore(dev, g, StorageKind::kPcsr, 16);
  Label l = g.edge_labels()[0];
  size_t hits = 0;
  size_t misses = 0;
  gpusim::LaunchBlocks(dev, 2, [&](gpusim::Block& block) {
    BlockExtractionCache cache(true);
    cache.GetSlice(block.warp(0), *store, 0, l, 0, 10);
    hits += cache.hits();
    misses += cache.misses();
  });
  EXPECT_EQ(hits, 0u);
  EXPECT_EQ(misses, 2u);
}

/// A data graph, its PCSR store, a vertex v with at least 40 neighbors
/// over edge label l, and C(u) = every third vertex of the graph.
struct MembersCase {
  Graph g = ::gsi::testing::RandomGraph(400, 6, 2, 1, 7);
  gpusim::Device dev;
  std::unique_ptr<NeighborStore> store =
      BuildStore(dev, g, StorageKind::kPcsr, 16);
  Label l = g.edge_labels()[0];
  VertexId v = 0;
  CandidateSet cand;

  MembersCase() {
    while (g.NeighborsWithLabel(v, l).size() < 40) ++v;
    std::vector<VertexId> list;
    for (VertexId x = 0; x < g.num_vertices(); x += 3) list.push_back(x);
    cand = std::move(
        CandidateSet::Create(dev, {list}, g.num_vertices(), true)[0]);
  }

  /// C(u)'s members among N(v, l)[begin, end), filtered on the host.
  std::vector<VertexId> HostMembers(size_t begin, size_t end) const {
    std::span<const Neighbor> all = g.NeighborsWithLabel(v, l);
    std::vector<VertexId> out;
    for (size_t i = begin; i < std::min(end, all.size()); ++i) {
      if (cand.ContainsHost(all[i].v)) out.push_back(all[i].v);
    }
    return out;
  }
};

TEST(DupRemoval, SecondMemberLookupSharesTheProbe) {
  MembersCase c;
  const std::vector<VertexId> want = c.HostMembers(0, 1u << 20);
  ASSERT_GE(want.size(), 2u);
  BlockExtractionCache cache(/*enabled=*/true);
  WithWarp(c.dev, [&](gpusim::Warp& w) {
    gpusim::MemStats before = c.dev.stats();
    EXPECT_EQ(cache.GetMembers(w, *c.store, c.v, c.l, 0, 1u << 20, c.cand),
              want);
    EXPECT_GT(c.dev.stats().gld, before.gld);

    // The hit reads the kept members from shared memory: no global load,
    // so no bitset gather, and no ALU work.
    before = c.dev.stats();
    EXPECT_EQ(cache.GetMembers(w, *c.store, c.v, c.l, 0, 1u << 20, c.cand),
              want);
    const gpusim::MemStats hit = c.dev.stats() - before;
    EXPECT_EQ(hit.gld, 0u);
    EXPECT_EQ(hit.alu_ops, 0u);
    EXPECT_EQ(hit.shared_accesses, want.size() + 2);

    // A chunk of the same list is another key: read and probed again.
    EXPECT_EQ(cache.GetMembers(w, *c.store, c.v, c.l, 8, 24, c.cand),
              c.HostMembers(8, 24));
  });
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(DupRemoval, OverBudgetMembersAreNotKept) {
  MembersCase c;
  const std::vector<VertexId> want = c.HostMembers(0, 1u << 20);
  ASSERT_GE(want.size(), 2u);
  // Room for one id: the member list does not fit.
  BlockExtractionCache cache(/*enabled=*/true, sizeof(VertexId));
  uint64_t loads[2] = {0, 0};
  WithWarp(c.dev, [&](gpusim::Warp& w) {
    for (uint64_t& gld : loads) {
      const uint64_t before = c.dev.stats().gld;
      EXPECT_EQ(cache.GetMembers(w, *c.store, c.v, c.l, 0, 1u << 20, c.cand),
                want);
      gld = c.dev.stats().gld - before;
    }
  });
  EXPECT_GT(loads[0], 0u);
  EXPECT_EQ(loads[1], loads[0]);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(DupRemoval, DisabledCacheReprobesEveryLookup) {
  MembersCase c;
  const std::vector<VertexId> want = c.HostMembers(0, 1u << 20);
  BlockExtractionCache cache(/*enabled=*/false);
  uint64_t extract = 0;
  uint64_t lookups[2] = {0, 0};
  WithWarp(c.dev, [&](gpusim::Warp& w) {
    std::vector<VertexId> slice;
    uint64_t before = c.dev.stats().gld;
    c.store->ExtractSlice(w, c.v, c.l, 0, 1u << 20, slice);
    extract = c.dev.stats().gld - before;
    for (uint64_t& gld : lookups) {
      before = c.dev.stats().gld;
      EXPECT_EQ(cache.GetMembers(w, *c.store, c.v, c.l, 0, 1u << 20, c.cand),
                want);
      gld = c.dev.stats().gld - before;
    }
  });
  // Every lookup reads the slice and gathers its bitset words again.
  EXPECT_GT(lookups[0], extract);
  EXPECT_EQ(lookups[1], lookups[0]);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
}

// --------------------------------------------------------- match table ---

TEST(MatchTableTest, AllocAndAccessors) {
  gpusim::Device dev;
  MatchTable t = MatchTable::Alloc(dev, 3, 2);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  t.Set(1, 0, 42);
  t.Set(1, 1, 43);
  EXPECT_EQ(t.At(1, 0), 42u);
  EXPECT_EQ(t.Row(1), (std::vector<VertexId>{42, 43}));
  EXPECT_EQ(t.Row(0), (std::vector<VertexId>{0, 0}));
}

TEST(MatchTableTest, FromColumn) {
  gpusim::Device dev;
  MatchTable t = MatchTable::FromColumn(dev, {7, 8, 9});
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 1u);
  EXPECT_EQ(t.At(2, 0), 9u);
}

MatchTable FillTable(gpusim::Device& dev, size_t rows, size_t cols,
                     VertexId base) {
  MatchTable t = MatchTable::Alloc(dev, rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      t.Set(r, c, base + static_cast<VertexId>(r * cols + c));
    }
  }
  return t;
}

TEST(MatchTableTest, CopyRowsFromBulk) {
  gpusim::Device dev;
  MatchTable src = FillTable(dev, 4, 3, 100);
  MatchTable dst = MatchTable::Alloc(dev, 5, 3);
  dst.CopyRowsFrom(src, /*src_begin=*/1, /*dst_begin=*/2, /*count=*/2);
  EXPECT_EQ(dst.Row(2), src.Row(1));
  EXPECT_EQ(dst.Row(3), src.Row(2));
  EXPECT_EQ(dst.Row(0), (std::vector<VertexId>{0, 0, 0}));  // untouched
  EXPECT_EQ(dst.Row(4), (std::vector<VertexId>{0, 0, 0}));
  dst.CopyRowsFrom(src, 0, 0, 0);  // zero-count is a no-op
}

TEST(MatchTableTest, ConcatRowsPreservesOrder) {
  gpusim::Device dev;
  MatchTable a = FillTable(dev, 3, 2, 10);
  MatchTable empty = MatchTable::Alloc(dev, 0, 2);
  MatchTable b = FillTable(dev, 2, 2, 50);

  gpusim::Device merge_dev;
  const gpusim::MemStats before = merge_dev.stats();
  std::vector<const MatchTable*> parts = {&a, &empty, &b};
  MatchTable merged = MatchTable::ConcatRows(merge_dev, parts);
  ASSERT_EQ(merged.rows(), 5u);
  ASSERT_EQ(merged.cols(), 2u);
  for (size_t r = 0; r < 3; ++r) EXPECT_EQ(merged.Row(r), a.Row(r));
  for (size_t r = 0; r < 2; ++r) EXPECT_EQ(merged.Row(3 + r), b.Row(r));
  // Host-mediated bulk movement: uncharged, like Upload.
  gpusim::MemStats delta = merge_dev.stats() - before;
  EXPECT_EQ(delta.gld, 0u);
  EXPECT_EQ(delta.gst, 0u);
  EXPECT_EQ(delta.kernel_launches, 0u);
}

TEST(MatchTableTest, ConcatRowsWidthFromNonEmptyParts) {
  // A join slice that dies early returns the full-width empty table; the
  // merge must take its width from the surviving parts.
  gpusim::Device dev;
  MatchTable wide_empty = MatchTable::Alloc(dev, 0, 9);
  MatchTable b = FillTable(dev, 2, 3, 50);
  std::vector<const MatchTable*> parts = {&wide_empty, &b};
  MatchTable merged = MatchTable::ConcatRows(dev, parts);
  EXPECT_EQ(merged.rows(), 2u);
  EXPECT_EQ(merged.cols(), 3u);
}

TEST(MatchTableTest, ConcatRowsAllEmpty) {
  gpusim::Device dev;
  MatchTable a = MatchTable::Alloc(dev, 0, 4);
  MatchTable b = MatchTable::Alloc(dev, 0, 4);
  std::vector<const MatchTable*> parts = {&a, &b};
  MatchTable merged = MatchTable::ConcatRows(dev, parts);
  EXPECT_EQ(merged.rows(), 0u);
  EXPECT_EQ(merged.cols(), 4u);
}

TEST(MatchTableTest, CopySliceExtractsRowRange) {
  gpusim::Device dev;
  MatchTable src = FillTable(dev, 6, 3, 100);
  MatchTable slice = MatchTable::CopySlice(dev, src, /*src_begin=*/2,
                                           /*count=*/3);
  ASSERT_EQ(slice.rows(), 3u);
  ASSERT_EQ(slice.cols(), 3u);
  for (size_t r = 0; r < 3; ++r) EXPECT_EQ(slice.Row(r), src.Row(2 + r));
}

// ------------------------------------------------------- matcher API ---

TEST(MatcherApi, NamedOptionPresetsDiffer) {
  GsiOptions minus = GsiMinusOptions();
  EXPECT_EQ(minus.join.storage, StorageKind::kCsr);
  EXPECT_EQ(minus.join.output_scheme, OutputScheme::kTwoStep);
  EXPECT_EQ(minus.join.set_op, SetOpKind::kNaive);
  GsiOptions opt = GsiOptOptions();
  EXPECT_TRUE(opt.join.load_balance);
  EXPECT_TRUE(opt.join.duplicate_removal);
  GsiOptions base = DefaultGsiOptions();
  EXPECT_FALSE(base.join.load_balance);
  EXPECT_EQ(base.join.storage, StorageKind::kPcsr);
}

TEST(MatcherApi, MatchesInQueryOrderInvertsPlanPermutation) {
  Graph data = ::gsi::testing::RandomGraph(150, 3, 3, 3, 7);
  Graph query = ::gsi::testing::RandomQuery(data, 4, 8);
  GsiMatcher m(data);
  auto r = m.Find(query);
  ASSERT_TRUE(r.ok());
  ASSERT_GE(r->num_matches(), 1u);
  std::vector<VertexId> match = r->MatchInQueryOrder(0);
  // Check consistency with the raw table + column map.
  for (size_t c = 0; c < r->table.cols(); ++c) {
    EXPECT_EQ(match[r->column_to_query[c]], r->table.At(0, c));
  }
}

TEST(MatcherApi, DeviceConfigIsPluggable) {
  Graph data = ::gsi::testing::RandomGraph(100, 3, 2, 2, 12);
  GsiOptions options;
  options.device.num_sms = 1;  // a one-SM device serializes all blocks
  GsiMatcher slow(data, options);
  GsiMatcher fast(data);  // 30 SMs
  Graph q = ::gsi::testing::RandomQuery(data, 4, 13);
  auto a = slow.Find(q);
  auto b = fast.Find(q);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->num_matches(), b->num_matches());
  // Same work, same transactions; more SMs -> shorter makespan.
  EXPECT_EQ(a->stats.join.gld, b->stats.join.gld);
  EXPECT_GE(a->stats.total_ms, b->stats.total_ms);
}

TEST(MatcherApi, StatsAccumulateAcrossQueries) {
  Graph data = ::gsi::testing::RandomGraph(150, 3, 3, 3, 9);
  GsiMatcher m(data);
  Graph q1 = ::gsi::testing::RandomQuery(data, 3, 10);
  Graph q2 = ::gsi::testing::RandomQuery(data, 3, 11);
  ASSERT_TRUE(m.Find(q1).ok());
  uint64_t after_one = m.device().stats().gld;
  ASSERT_TRUE(m.Find(q2).ok());
  EXPECT_GT(m.device().stats().gld, after_one);
}

}  // namespace
}  // namespace gsi
