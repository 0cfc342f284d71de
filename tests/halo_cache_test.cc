// The lane-scoped halo cache (gsi/halo_cache.h): unit semantics of the
// serve/record contract, LRU budget enforcement, and the property that
// matters — partitioned executions (R = 1 and R > 1) with any budget return
// match tables byte-identical to GsiMatcher::Find while nonzero budgets
// strictly remove interconnect transactions, and a query's counters never
// depend on what ran before it.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/launch.h"
#include "gsi/halo_cache.h"
#include "gsi/matcher.h"
#include "gsi/partition.h"
#include "gsi/replication.h"
#include "test_util.h"

namespace gsi {
namespace {

template <typename Fn>
void WithWarp(gpusim::Device& dev, Fn&& fn) {
  gpusim::Launch(dev, 1, [&](gpusim::Warp& w) { fn(w); });
}

// ------------------------------------------------------ unit semantics ---

TEST(HaloCacheUnit, CountRoundTripsAndChargesNoRemoteTransactions) {
  gpusim::Device dev;
  HaloCache cache(1 << 20);
  WithWarp(dev, [&](gpusim::Warp& w) {
    EXPECT_FALSE(cache.ServeCount(w, 0, 7, 1).has_value());
  });
  cache.RecordCount(0, 7, 1, 5);
  const uint64_t remote_before = dev.stats().remote_transactions;
  const uint64_t gld_before = dev.stats().gld;
  WithWarp(dev, [&](gpusim::Warp& w) {
    std::optional<size_t> n = cache.ServeCount(w, 0, 7, 1);
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(*n, 5u);
  });
  // A hit is a local read: gld moves, the interconnect counter does not.
  EXPECT_EQ(dev.stats().remote_transactions, remote_before);
  EXPECT_GT(dev.stats().gld, gld_before);
  const HaloCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
}

TEST(HaloCacheUnit, CompleteListServesEveryProbeShape) {
  gpusim::Device dev;
  HaloCache cache(1 << 20);
  const std::vector<VertexId> list = {10, 20, 30, 40};
  cache.RecordSlice(2, 9, 0, 0, UINT32_MAX, list);
  WithWarp(dev, [&](gpusim::Warp& w) {
    std::vector<VertexId> out;
    std::optional<size_t> n = cache.ServeSlice(w, 2, 9, 0, 0, UINT32_MAX, out);
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(out, list);

    // Slices clamp end to the count exactly like the store does.
    out.clear();
    n = cache.ServeSlice(w, 2, 9, 0, 1, 3, out);
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(*n, 2u);
    EXPECT_EQ(out, (std::vector<VertexId>{20, 30}));
    out.clear();
    n = cache.ServeSlice(w, 2, 9, 0, 2, 100, out);
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(out, (std::vector<VertexId>{30, 40}));
    out.clear();
    n = cache.ServeSlice(w, 2, 9, 0, 7, 9, out);
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(*n, 0u);
    EXPECT_TRUE(out.empty());

    // Value ranges are inclusive on both ends.
    out.clear();
    n = cache.ServeValueRange(w, 2, 9, 0, 15, 30, out);
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(out, (std::vector<VertexId>{20, 30}));
    // A count is implied by the complete list.
    n = cache.ServeCount(w, 2, 9, 0);
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(*n, 4u);
  });
}

TEST(HaloCacheUnit, SlicePrefixesAssembleIntoACompleteEntry) {
  gpusim::Device dev;
  HaloCache cache(1 << 20);
  // First chunk [0, 2): full return, count still unknown — no serving yet
  // (ServeSlice needs the exact count to clamp the way the store does).
  cache.RecordSlice(1, 4, 2, /*begin=*/0, /*requested=*/2, {{5, 6}});
  WithWarp(dev, [&](gpusim::Warp& w) {
    std::vector<VertexId> out;
    EXPECT_FALSE(cache.ServeSlice(w, 1, 4, 2, 0, 2, out).has_value());
    EXPECT_FALSE(cache.ServeSlice(w, 1, 4, 2, 0, UINT32_MAX, out).has_value());
  });
  // Second chunk [2, 4) returns one value: short return ends the list at 3
  // and the contiguous prefix completes the entry.
  cache.RecordSlice(1, 4, 2, /*begin=*/2, /*requested=*/2, {{7}});
  WithWarp(dev, [&](gpusim::Warp& w) {
    std::vector<VertexId> out;
    std::optional<size_t> n = cache.ServeSlice(w, 1, 4, 2, 0, UINT32_MAX, out);
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(out, (std::vector<VertexId>{5, 6, 7}));
    n = cache.ServeCount(w, 1, 4, 2);
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(*n, 3u);
  });
}

TEST(HaloCacheUnit, EmptyShortReturnPastEndLearnsNoCount) {
  gpusim::Device dev;
  HaloCache cache(1 << 20);
  // An empty return for begin > 0 only proves |list| <= begin — admitting
  // begin as the count would be wrong whenever begin overshoots the end.
  cache.RecordSlice(0, 3, 0, /*begin=*/8, /*requested=*/4, {});
  WithWarp(dev, [&](gpusim::Warp& w) {
    EXPECT_FALSE(cache.ServeCount(w, 0, 3, 0).has_value());
  });
  // An empty *full-list* return at begin 0 is a real count: the list is
  // empty, and the entry is complete.
  cache.RecordSlice(0, 3, 0, /*begin=*/0, /*requested=*/4, {});
  WithWarp(dev, [&](gpusim::Warp& w) {
    std::optional<size_t> n = cache.ServeCount(w, 0, 3, 0);
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(*n, 0u);
    std::vector<VertexId> out;
    n = cache.ServeSlice(w, 0, 3, 0, 0, UINT32_MAX, out);
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(*n, 0u);
  });
}

TEST(HaloCacheUnit, LruEvictionKeepsResidencyUnderBudget) {
  gpusim::Device dev;
  // Room for roughly two small list entries (64B overhead + values each).
  HaloCache cache(256);
  const std::vector<VertexId> list = {1, 2, 3, 4, 5, 6, 7, 8};  // 96B entry
  cache.RecordSlice(0, 0, 0, 0, UINT32_MAX, list);
  cache.RecordSlice(0, 1, 0, 0, UINT32_MAX, list);
  EXPECT_LE(cache.stats().resident_bytes, cache.budget_bytes());
  EXPECT_EQ(cache.stats().evictions, 0u);
  // A third entry exceeds the budget; the least-recently-used one goes.
  cache.RecordSlice(0, 2, 0, 0, UINT32_MAX, list);
  EXPECT_LE(cache.stats().resident_bytes, cache.budget_bytes());
  EXPECT_GT(cache.stats().evictions, 0u);
  WithWarp(dev, [&](gpusim::Warp& w) {
    std::vector<VertexId> out;
    EXPECT_FALSE(cache.ServeSlice(w, 0, 0, 0, 0, UINT32_MAX, out).has_value())
        << "vertex 0 was the LRU entry and should have been evicted";
    EXPECT_TRUE(cache.ServeSlice(w, 0, 2, 0, 0, UINT32_MAX, out).has_value());
  });
  // An entry bigger than the whole budget is admitted and then immediately
  // evicted — the invariant survives oversized lists.
  std::vector<VertexId> huge(200, 1);
  cache.RecordSlice(0, 3, 0, 0, UINT32_MAX, huge);
  EXPECT_LE(cache.stats().resident_bytes, cache.budget_bytes());
}

TEST(HaloCacheUnit, LruTouchOnServeProtectsHotEntries) {
  gpusim::Device dev;
  HaloCache cache(256);
  const std::vector<VertexId> list = {1, 2, 3, 4, 5, 6, 7, 8};
  cache.RecordSlice(0, 0, 0, 0, UINT32_MAX, list);
  cache.RecordSlice(0, 1, 0, 0, UINT32_MAX, list);
  // Touch vertex 0: it becomes most-recent, so the next insertion evicts
  // vertex 1 instead.
  WithWarp(dev, [&](gpusim::Warp& w) {
    std::vector<VertexId> out;
    EXPECT_TRUE(cache.ServeSlice(w, 0, 0, 0, 0, UINT32_MAX, out).has_value());
  });
  cache.RecordSlice(0, 2, 0, 0, UINT32_MAX, list);
  WithWarp(dev, [&](gpusim::Warp& w) {
    std::vector<VertexId> out;
    EXPECT_TRUE(cache.ServeSlice(w, 0, 0, 0, 0, UINT32_MAX, out).has_value());
    EXPECT_FALSE(cache.ServeSlice(w, 0, 1, 0, 0, UINT32_MAX, out).has_value());
  });
}

// ------------------------------------------------- end-to-end property ---

struct DeviceSet {
  std::vector<std::unique_ptr<gpusim::Device>> owned;
  std::vector<gpusim::Device*> ptrs;
};

DeviceSet MakeDevices(size_t k, const gpusim::DeviceConfig& config) {
  DeviceSet ds;
  for (size_t i = 0; i < k; ++i) {
    ds.owned.push_back(std::make_unique<gpusim::Device>(config));
    ds.ptrs.push_back(ds.owned.back().get());
  }
  return ds;
}

void ExpectSameTable(const QueryResult& got, const QueryResult& want,
                     const std::string& context) {
  ASSERT_EQ(got.table.rows(), want.table.rows()) << context;
  ASSERT_EQ(got.table.cols(), want.table.cols()) << context;
  EXPECT_EQ(got.column_to_query, want.column_to_query) << context;
  ASSERT_TRUE(got.TableEquals(want)) << context;
}

/// Plain partitioning: one partition per device, one replica each.
Result<ReplicatedGraph> BuildPartitioned(const DeviceSet& ds, const Graph& g,
                                         const GsiOptions& options,
                                         const GraphPartitioner& partitioner) {
  return ReplicatedGraph::Build(ds.ptrs, g, options, partitioner,
                                /*partitions=*/ds.ptrs.size(), /*replicas=*/1);
}

// Sweeps budget x partitioner x K on two graph shapes. For every cell the
// match table must be byte-identical to the sequential matcher; at nonzero
// budget the query's own cache must strictly reduce interconnect
// transactions relative to the budget-0 baseline, and every remote lookup
// is either a hit or a remote probe.
TEST(HaloCacheProperty, SweepBudgetsPartitionersAndPartitionCounts) {
  const uint64_t kTiny = 512;         // forces eviction on every cell here
  const uint64_t kUnbounded = 1u << 30;
  const HashVertexPartitioner hash;
  const GreedyEdgeCutPartitioner greedy;
  const struct {
    const char* name;
    Graph graph;
  } graphs[] = {
      {"scale-free", testing::RandomGraph(300, 3, 3, 2, 101)},
      {"hubs", testing::RandomHubGraph(300, 3, 3, 2, 103, 3, 0.2)},
  };
  for (const auto& gcase : graphs) {
    const Graph& g = gcase.graph;
    const Graph q = testing::RandomQuery(g, 4, 105);
    const GsiOptions base = GsiOptOptions();
    GsiMatcher sequential(g, base);
    Result<QueryResult> want = sequential.Find(q);
    ASSERT_TRUE(want.ok());

    for (const GraphPartitioner* partitioner :
         {static_cast<const GraphPartitioner*>(&hash),
          static_cast<const GraphPartitioner*>(&greedy)}) {
      for (size_t k : {2, 4}) {
        const std::string ctx = std::string(gcase.name) + " " +
                                partitioner->name() + " k=" +
                                std::to_string(k);
        // Budget 0: no caches, the uncached remote-transaction baseline.
        DeviceSet ds0 = MakeDevices(k, base.device);
        Result<ReplicatedGraph> pg0 =
            BuildPartitioned(ds0, g, base, *partitioner);
        ASSERT_TRUE(pg0.ok()) << ctx;
        Result<QueryResult> r0 = testing::ExecuteReplicated(*pg0, q);
        ASSERT_TRUE(r0.ok()) << ctx;
        ExpectSameTable(*r0, *want, ctx + " budget=0");
        ASSERT_GT(r0->stats.remote_probes, 0u)
            << ctx << ": workload has no remote probes, property is vacuous";
        EXPECT_EQ(r0->stats.halo_cache_hits, 0u) << ctx;

        for (uint64_t budget : {kTiny, kUnbounded}) {
          const std::string bctx = ctx + " budget=" + std::to_string(budget);
          GsiOptions opt = base;
          opt.halo_budget_bytes = budget;
          DeviceSet ds = MakeDevices(k, base.device);
          Result<ReplicatedGraph> pg =
              BuildPartitioned(ds, g, opt, *partitioner);
          ASSERT_TRUE(pg.ok()) << bctx;
          // The budget shows up in the build's residency accounting.
          for (uint64_t rb : pg->build_stats().resident_bytes) {
            EXPECT_GE(rb, budget) << bctx;
          }
          Result<QueryResult> cached = testing::ExecuteReplicated(*pg, q);
          ASSERT_TRUE(cached.ok()) << bctx;
          ExpectSameTable(*cached, *want, bctx);

          EXPECT_GT(cached->stats.halo_cache_hits, 0u) << bctx;
          EXPECT_LT(cached->stats.join.remote_transactions,
                    r0->stats.join.remote_transactions)
              << bctx << ": the query's cache must remove remote transactions";
          EXPECT_EQ(cached->stats.halo_cache_hits + cached->stats.remote_probes,
                    r0->stats.remote_probes)
              << bctx << ": every remote lookup is a hit or a remote probe";
          if (budget == kTiny) {
            EXPECT_GT(cached->stats.halo_cache_evictions, 0u)
                << bctx << ": tiny budget never forced an eviction";
          }
        }
      }
    }
  }
}

TEST(HaloCacheProperty, ReplicatedLanesStayBitIdenticalAndSaveRemotes) {
  Graph g = testing::RandomHubGraph(300, 3, 3, 2, 111, 3, 0.2);
  Graph q = testing::RandomQuery(g, 4, 112);
  const GsiOptions base = GsiOptOptions();
  GsiMatcher sequential(g, base);
  Result<QueryResult> want = sequential.Find(q);
  ASSERT_TRUE(want.ok());

  const size_t devices = 4, replicas = 2;
  DeviceSet ds0 = MakeDevices(devices, base.device);
  Result<ReplicatedGraph> rg0 =
      ReplicatedGraph::Build(ds0.ptrs, g, base, HashVertexPartitioner(),
                             /*partitions=*/devices, replicas);
  ASSERT_TRUE(rg0.ok());
  Result<QueryResult> r0 = testing::ExecuteReplicated(*rg0, q);
  ASSERT_TRUE(r0.ok());
  ExpectSameTable(*r0, *want, "replicated budget=0");
  ASSERT_GT(r0->stats.remote_probes, 0u);

  GsiOptions opt = base;
  opt.halo_budget_bytes = 1 << 20;
  DeviceSet ds = MakeDevices(devices, base.device);
  Result<ReplicatedGraph> rg =
      ReplicatedGraph::Build(ds.ptrs, g, opt, HashVertexPartitioner(),
                             /*partitions=*/devices, replicas);
  ASSERT_TRUE(rg.ok());
  Result<QueryResult> cached = testing::ExecuteReplicated(*rg, q);
  ASSERT_TRUE(cached.ok());
  ExpectSameTable(*cached, *want, "replicated cached");
  EXPECT_GT(cached->stats.halo_cache_hits, 0u);
  EXPECT_LT(cached->stats.join.remote_transactions,
            r0->stats.join.remote_transactions);
}

TEST(HaloCacheProperty, FullReplicationNeverTouchesTheCache) {
  // R == N: every device hosts every partition, so all probes are local or
  // co-located — the admission skip for co-resident replicas is structural
  // and no lookup ever reaches a cache.
  Graph g = testing::RandomGraph(200, 3, 3, 2, 121);
  Graph q = testing::RandomQuery(g, 4, 122);
  GsiOptions opt = GsiOptOptions();
  opt.halo_budget_bytes = 1 << 20;
  DeviceSet ds = MakeDevices(2, opt.device);
  Result<ReplicatedGraph> rg =
      ReplicatedGraph::Build(ds.ptrs, g, opt, HashVertexPartitioner(),
                             /*partitions=*/2, /*replicas=*/2);
  ASSERT_TRUE(rg.ok());
  Result<QueryResult> r = testing::ExecuteReplicated(*rg, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.remote_probes, 0u);
  EXPECT_EQ(r->stats.halo_cache_hits, 0u);
}

TEST(HaloCacheProperty, RepeatRunsAgainstEqualStateAreDeterministic) {
  // Every lane starts the query with an empty cache, so a query's second
  // run on the same graph and devices repeats every counter of its first —
  // cache hits and evictions included. Neither the earlier run nor thread
  // interleaving reaches the simulated numbers.
  Graph g = testing::RandomHubGraph(250, 3, 3, 2, 131, 2, 0.15);
  Graph q = testing::RandomQuery(g, 4, 132);
  GsiOptions opt = GsiOptOptions();
  opt.halo_budget_bytes = 4096;
  DeviceSet ds = MakeDevices(3, opt.device);
  Result<ReplicatedGraph> pg =
      BuildPartitioned(ds, g, opt, HashVertexPartitioner());
  ASSERT_TRUE(pg.ok());
  Result<QueryResult> a = testing::ExecuteReplicated(*pg, q);
  Result<QueryResult> b = testing::ExecuteReplicated(*pg, q);
  ASSERT_TRUE(a.ok() && b.ok());
  const QueryStats& first = a->stats;
  const QueryStats& second = b->stats;
  ASSERT_GT(first.halo_cache_hits, 0u) << "the cache never engaged";
  testing::ExpectSameCounters(first.filter, second.filter, "filter");
  testing::ExpectSameCounters(first.join, second.join, "join");
  EXPECT_EQ(first.filter_ms, second.filter_ms);
  EXPECT_EQ(first.join_ms, second.join_ms);
  EXPECT_EQ(first.total_ms, second.total_ms);
  EXPECT_EQ(first.num_matches, second.num_matches);
  EXPECT_EQ(first.min_candidate_size, second.min_candidate_size);
  testing::ExpectSameJoinStats(first.join_detail, second.join_detail,
                               "join_detail");
  EXPECT_EQ(first.shards_used, second.shards_used);
  EXPECT_EQ(first.shard_skew, second.shard_skew);
  EXPECT_EQ(first.partitions_used, second.partitions_used);
  EXPECT_EQ(first.remote_probes, second.remote_probes);
  EXPECT_EQ(first.halo_bytes, second.halo_bytes);
  EXPECT_EQ(first.partition_skew, second.partition_skew);
  EXPECT_EQ(first.halo_cache_hits, second.halo_cache_hits);
  EXPECT_EQ(first.halo_cache_bytes, second.halo_cache_bytes);
  EXPECT_EQ(first.halo_cache_evictions, second.halo_cache_evictions);
  EXPECT_EQ(first.replica_lanes, second.replica_lanes);
  EXPECT_EQ(first.co_located_probes, second.co_located_probes);
  EXPECT_EQ(first.attempts, second.attempts);
  EXPECT_EQ(first.backoff_ms, second.backoff_ms);
}

}  // namespace
}  // namespace gsi
