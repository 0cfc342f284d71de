// Multi-device sharded execution: the merged match table must be
// bit-identical to single-device GsiMatcher::Find (same rows, same order,
// same column mapping) on every integration-test graph, and the workload
// partitioner must keep skewed seeds balanced.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/datasets.h"
#include "graph/query_generator.h"
#include "gsi/load_balance.h"
#include "gsi/matcher.h"
#include "gsi/query_engine.h"
#include "gsi/sharded_engine.h"
#include "obs/trace.h"
#include "service/device_pool.h"
#include "test_util.h"

namespace gsi {
namespace {

/// Bit-identical: not just the same match set, the same table. Per-cell
/// asserts give useful diagnostics; the final check covers the
/// QueryResult::TableEquals helper the bench and example rely on.
void ExpectBitIdentical(const QueryResult& sharded, const QueryResult& single,
                        const std::string& context) {
  ASSERT_EQ(sharded.table.rows(), single.table.rows()) << context;
  ASSERT_EQ(sharded.table.cols(), single.table.cols()) << context;
  EXPECT_EQ(sharded.column_to_query, single.column_to_query) << context;
  for (size_t r = 0; r < single.table.rows(); ++r) {
    for (size_t c = 0; c < single.table.cols(); ++c) {
      ASSERT_EQ(sharded.table.At(r, c), single.table.At(r, c))
          << context << " cell (" << r << ", " << c << ")";
    }
  }
  EXPECT_TRUE(sharded.TableEquals(single)) << context;
}

Result<QueryResult> ExecuteSharded(const QueryEngine& engine,
                                   const Graph& query, size_t num_devices) {
  DevicePool pool(num_devices, engine.options().device);
  std::vector<DevicePool::Lease> leases = pool.AcquireAll().value();
  std::vector<gpusim::Device*> devs;
  for (DevicePool::Lease& l : leases) devs.push_back(l.get());
  ShardOptions so;
  so.min_rows_per_shard = 1;  // shard even tiny test tables
  return engine.Execute({.query = &query, .devices = devs, .shard = so});
}

TEST(ShardedEngine, BitIdenticalToSingleDeviceOnIntegrationGraphs) {
  for (const char* name : {"enron", "gowalla", "watdiv"}) {
    Result<Dataset> d = MakeDataset(name, /*scale=*/0.01);
    ASSERT_TRUE(d.ok());
    const Graph& g = d->graph;
    QueryGenConfig qc;
    qc.num_vertices = 5;
    std::vector<Graph> queries = GenerateQuerySet(g, qc, 3, 77);
    ASSERT_FALSE(queries.empty());

    // GsiMinusOptions is the two-step output scheme, which computes no
    // first-edge bounds to size a fan-out, so it runs on the primary.
    GsiOptions label_degree = GsiOptOptions();
    label_degree.filter.strategy = FilterStrategy::kLabelDegree;
    for (const GsiOptions& options : {DefaultGsiOptions(), GsiOptOptions(),
                                      GsiMinusOptions(), label_degree}) {
      GsiMatcher sequential(g, options);
      QueryEngine engine(g, options);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        Result<QueryResult> single = sequential.Find(queries[qi]);
        ASSERT_TRUE(single.ok());
        for (size_t devices : {2, 3, 4}) {
          Result<QueryResult> sharded =
              ExecuteSharded(engine, queries[qi], devices);
          ASSERT_TRUE(sharded.ok());
          const std::string context = std::string(name) + " query " +
                                      std::to_string(qi) + " devices " +
                                      std::to_string(devices);
          ExpectBitIdentical(*sharded, *single, context);
          // Only the join fans out: the primary filters alone, so the
          // phase costs exactly one device's.
          testing::ExpectSameCounters(sharded->stats.filter,
                                      single->stats.filter, context);
          EXPECT_EQ(sharded->stats.filter_ms, single->stats.filter_ms)
              << context;
        }
      }
    }
  }
}

TEST(ShardedEngine, BitIdenticalOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Graph g = testing::RandomGraph(300, 3, 3, 2, seed * 11);
    Graph q = testing::RandomQuery(g, 5, seed * 13);
    GsiMatcher sequential(g, GsiOptOptions());
    QueryEngine engine(g, GsiOptOptions());
    Result<QueryResult> single = sequential.Find(q);
    ASSERT_TRUE(single.ok());
    Result<QueryResult> sharded = ExecuteSharded(engine, q, 4);
    ASSERT_TRUE(sharded.ok());
    ExpectBitIdentical(*sharded, *single, "seed " + std::to_string(seed));
  }
}

TEST(ShardedEngine, SingleDeviceSpanIsPlainExecution) {
  Graph g = testing::RandomGraph(200, 3, 3, 2, 42);
  Graph q = testing::RandomQuery(g, 4, 43);
  QueryEngine engine(g, GsiOptOptions());
  Result<QueryResult> single = engine.Execute({.query = &q});
  Result<QueryResult> sharded = ExecuteSharded(engine, q, 1);
  ASSERT_TRUE(single.ok() && sharded.ok());
  ExpectBitIdentical(*sharded, *single, "one device");
  EXPECT_EQ(sharded->stats.shards_used, 1u);
  EXPECT_EQ(sharded->stats.shard_skew, 0);
}

TEST(ShardedEngine, ShardStatsRollUp) {
  Graph g = testing::RandomGraph(400, 4, 2, 2, 7);
  Graph q = testing::RandomQuery(g, 4, 8);
  QueryEngine engine(g, GsiOptOptions());
  Result<QueryResult> single = engine.Execute({.query = &q});
  ASSERT_TRUE(single.ok());
  ASSERT_GE(single->stats.min_candidate_size, 2u) << "workload too selective";

  Result<QueryResult> sharded = ExecuteSharded(engine, q, 4);
  ASSERT_TRUE(sharded.ok());
  EXPECT_GE(sharded->stats.shards_used, 2u);
  EXPECT_LE(sharded->stats.shards_used, 4u);
  // Skew is max/mean over shards: >= 1 by definition when sharded.
  EXPECT_GE(sharded->stats.shard_skew, 1.0);
  // The makespan of parallel shards plus merge must not exceed the summed
  // counters' serial time, and the match count is unchanged.
  EXPECT_LE(sharded->stats.join_ms,
            sharded->stats.join.SimulatedMs(engine.options().device) + 1e-9);
  EXPECT_EQ(sharded->stats.num_matches, single->stats.num_matches);
}

TEST(ShardedEngine, SerialStepsCostExactlyOneDevice) {
  // Every full-replica entry point runs the one stepped join: over one
  // device it is the whole one-device flow, and over two devices under the
  // default volume floor no step of this query distributes, so the extra
  // device runs nothing. Either way the join does exactly one device's
  // kernels (the per-step bounds feed the fan-out decision AND the
  // primary's step) and the makespan is one device's join time. The
  // two-step scheme (GsiMinusOptions) sizes no step and runs each on the
  // primary; a one-vertex query and an empty candidate set are answered
  // without a join.
  Graph g = testing::RandomGraph(300, 3, 3, 2, 11);
  std::vector<Graph> queries;
  queries.push_back(testing::RandomQuery(g, 5, 13));
  queries.push_back(*Graph::Create(1, {g.vertex_label(0)}, {}));
  // g's labels are < 3, so the candidate sets of this query are empty.
  queries.push_back(*Graph::Create(2, {Label{50}, Label{51}}, {{0, 1, 0}}));
  const std::pair<const char*, GsiOptions> configs[] = {
      {"GSI", DefaultGsiOptions()},
      {"GSI-opt", GsiOptOptions()},
      {"GSI-", GsiMinusOptions()}};
  for (const auto& [name, options] : configs) {
    GsiMatcher matcher(g, options);
    QueryEngine engine(g, options);
    BatchResult batch = engine.RunBatch(queries);
    ASSERT_EQ(batch.per_query.size(), queries.size());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const Graph& q = queries[qi];
      const std::string at =
          std::string(name) + " query " + std::to_string(qi);
      Result<QueryResult> want = matcher.Find(q);
      ASSERT_TRUE(want.ok()) << at << ": " << want.status().ToString();

      std::vector<std::pair<std::string, Result<QueryResult>>> got;
      got.emplace_back("Execute", engine.Execute({.query = &q}));
      {
        DevicePool pool(1, options.device);
        DevicePool::Lease lease = pool.Acquire().value();
        gpusim::Device* const devs[] = {lease.get()};
        got.emplace_back("Execute on a leased device",
                         engine.Execute({.query = &q, .devices = devs}));
      }
      got.emplace_back("RunBatch", std::move(batch.per_query[qi]));
      {
        gpusim::Device dev(options.device);
        gpusim::Device* const devs[] = {&dev};
        QueryStats stats;
        Result<FilterResult> f = RunFilterStage(dev, engine.filter(), q, stats);
        ASSERT_TRUE(f.ok()) << at;
        Result<PagedQueryResult> paged = RunJoinStageShardedPaged(
            devs, g, engine.store(), options, ShardOptions(), q,
            std::move(f.value()), stats);
        ASSERT_TRUE(paged.ok()) << at;
        got.emplace_back("stage pair",
                         ToQueryResult(std::move(paged.value()), dev));
      }
      {
        DevicePool pool(2, options.device);
        std::vector<DevicePool::Lease> leases = pool.AcquireAll().value();
        std::vector<gpusim::Device*> devs;
        for (DevicePool::Lease& l : leases) devs.push_back(l.get());
        got.emplace_back("Execute on two devices",
                         engine.Execute({.query = &q,
                                         .devices = devs,
                                         .shard = ShardOptions()}));
      }

      for (const auto& [path, r] : got) {
        const std::string context = at + ", " + path;
        ASSERT_TRUE(r.ok()) << context << ": " << r.status().ToString();
        ExpectBitIdentical(*r, *want, context);
        EXPECT_EQ(r->stats.shards_used, 1u) << context;
        testing::ExpectSameCounters(r->stats.filter, want->stats.filter,
                                    context + " filter");
        testing::ExpectSameCounters(r->stats.join, want->stats.join,
                                    context + " join");
        testing::ExpectSameJoinStats(r->stats.join_detail,
                                     want->stats.join_detail, context);
        EXPECT_EQ(r->stats.join_ms, want->stats.join_ms) << context;
        EXPECT_EQ(r->stats.total_ms, want->stats.total_ms) << context;
      }
    }
  }
}

TEST(ShardedEngine, DistributedSliceLaunchesOnlyPassAAndLink) {
  // The primary filters and sizes every step (bounds and GBA offsets in
  // one kernel) and hands each slice its share, so a slice's step is
  // Pass A and link: 2 launches (no row of this graph reaches Layer 1).
  // Devices 1-3 run nothing but slices.
  Graph g = testing::RandomHubGraph(300, 3, 2, 2, 2, 5, 0.25);
  Graph q = testing::RandomQuery(g, 3, 102);
  QueryEngine engine(g, GsiOptOptions());
  std::vector<std::unique_ptr<gpusim::Device>> owned;
  std::vector<gpusim::Device*> devs;
  for (int i = 0; i < 4; ++i) {
    owned.push_back(
        std::make_unique<gpusim::Device>(engine.options().device));
    owned.back()->set_ordinal(i);
    devs.push_back(owned.back().get());
  }
  ShardOptions so;
  so.min_rows_per_shard = 1;
  QueryStats stats;
  Result<FilterResult> filtered =
      RunFilterStage(*devs[0], engine.filter(), q, stats);
  ASSERT_TRUE(filtered.ok());
  obs::Tracer tracer;
  Result<PagedQueryResult> r = RunJoinStageShardedPaged(
      devs, g, engine.store(), engine.options(), so, q,
      std::move(filtered.value()), stats,
      obs::TraceContext{&tracer, -1, obs::kHostDevice});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->stats.shards_used, 4u);
  std::vector<uint64_t> slices(devs.size(), 0);
  for (const obs::TraceSpan& s : tracer.Snapshot()) {
    if (s.name == "shard_slice") ++slices[static_cast<size_t>(s.device)];
  }
  for (size_t d = 1; d < devs.size(); ++d) {
    EXPECT_GE(slices[d], 1u) << "device " << d;
    EXPECT_EQ(devs[d]->stats().kernel_launches, 2 * slices[d])
        << "device " << d;
  }
}

TEST(ShardedEngine, PrimaryLaunchesNothingAfterAGather) {
  // The slices' link kernels size their rows for the next step, and the
  // primary concatenates those sizings with the gathered table, so after a
  // distributed step the primary launches nothing before the next step's
  // Pass A: its clock does not move between the distributed step's span
  // and the next step's, and its join launches are the seed plus Pass A
  // and link of each step it ran (no row of this graph reaches Layer 1).
  Graph g = testing::RandomHubGraph(300, 3, 2, 2, 2, 5, 0.25);
  Graph q = testing::RandomQuery(g, 4, 102);
  QueryEngine engine(g, GsiOptOptions());
  std::vector<std::unique_ptr<gpusim::Device>> owned;
  std::vector<gpusim::Device*> devs;
  for (int i = 0; i < 4; ++i) {
    owned.push_back(
        std::make_unique<gpusim::Device>(engine.options().device));
    owned.back()->set_ordinal(i);
    devs.push_back(owned.back().get());
  }
  ShardOptions so;
  so.min_rows_per_shard = 1;
  QueryStats stats;
  Result<FilterResult> filtered =
      RunFilterStage(*devs[0], engine.filter(), q, stats);
  ASSERT_TRUE(filtered.ok());
  const uint64_t launches_before_join = devs[0]->stats().kernel_launches;
  obs::Tracer tracer;
  Result<PagedQueryResult> r = RunJoinStageShardedPaged(
      devs, g, engine.store(), engine.options(), so, q,
      std::move(filtered.value()), stats,
      obs::TraceContext{&tracer, -1, obs::kHostDevice});
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const std::vector<obs::TraceSpan> spans = tracer.Snapshot();
  std::vector<const obs::TraceSpan*> steps;  // by step index
  uint64_t primary_steps = 0;
  for (const obs::TraceSpan& s : spans) {
    const bool serial = s.name == "join_step";
    if (serial || s.name == "join_step_distributed") {
      const size_t step = std::stoull(s.attrs[0].second);
      ASSERT_EQ(s.attrs[0].first, "step");
      if (steps.size() <= step) steps.resize(step + 1, nullptr);
      steps[step] = &s;
    }
    primary_steps += serial || (s.name == "shard_slice" && s.device == 0);
  }
  ASSERT_EQ(steps.size(), 3u);
  size_t gathers = 0;
  for (size_t k = 0; k + 1 < steps.size(); ++k) {
    ASSERT_NE(steps[k], nullptr);
    ASSERT_NE(steps[k + 1], nullptr);
    if (steps[k]->name != "join_step_distributed") continue;
    ++gathers;
    EXPECT_EQ(steps[k + 1]->start_ns, steps[k]->end_ns) << "step " << k;
  }
  EXPECT_GE(gathers, 1u);
  EXPECT_EQ(devs[0]->stats().kernel_launches - launches_before_join,
            1 + 2 * primary_steps);
}

TEST(ShardedEngine, InvalidQueriesStillFail) {
  Graph g = testing::RandomGraph(100, 3, 2, 2, 5);
  QueryEngine engine(g, DefaultGsiOptions());
  Result<QueryResult> r = ExecuteSharded(engine, Graph(), 2);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------ workload partitioner ---

uint64_t MaxWeight(const std::vector<ShardRange>& ranges) {
  uint64_t worst = 0;
  for (const ShardRange& r : ranges) worst = std::max(worst, r.weight);
  return worst;
}

void ExpectTiles(const std::vector<ShardRange>& ranges, size_t n) {
  size_t covered = 0;
  for (const ShardRange& r : ranges) {
    EXPECT_EQ(r.begin, covered);
    EXPECT_LT(r.begin, r.end);
    covered = r.end;
  }
  EXPECT_EQ(covered, n);
}

TEST(PartitionByWorkload, EmptyInputYieldsNoShards) {
  EXPECT_TRUE(PartitionByWorkload({}, 4).empty());
  std::vector<uint64_t> one = {5};
  EXPECT_TRUE(PartitionByWorkload(one, 0).empty());
}

TEST(PartitionByWorkload, FewerItemsThanShards) {
  std::vector<uint64_t> weights = {5, 7};
  std::vector<ShardRange> ranges = PartitionByWorkload(weights, 4);
  ASSERT_EQ(ranges.size(), 2u);
  ExpectTiles(ranges, weights.size());
  EXPECT_EQ(ranges[0].weight, 5u);
  EXPECT_EQ(ranges[1].weight, 7u);
}

TEST(PartitionByWorkload, UniformWeightsSplitEvenly) {
  std::vector<uint64_t> weights(100, 1);
  std::vector<ShardRange> ranges = PartitionByWorkload(weights, 4);
  ASSERT_EQ(ranges.size(), 4u);
  ExpectTiles(ranges, weights.size());
  for (const ShardRange& r : ranges) EXPECT_EQ(r.end - r.begin, 25u);
}

TEST(PartitionByWorkload, HotHeadDoesNotDragTheRestAlong) {
  // One candidate carries ~the whole workload: an equal-count split would
  // put it plus half the light rows on shard 0 (weight 1001 vs 2); sizing
  // by weight isolates it.
  std::vector<uint64_t> weights = {1000, 1, 1, 1};
  std::vector<ShardRange> ranges = PartitionByWorkload(weights, 2);
  ASSERT_EQ(ranges.size(), 2u);
  ExpectTiles(ranges, weights.size());
  EXPECT_EQ(ranges[0].end, 1u);  // the hot row rides alone
  EXPECT_EQ(MaxWeight(ranges), 1000u);
  EXPECT_LT(MaxWeight(ranges), 1001u);  // beats the equal-count split
}

TEST(PartitionByWorkload, HotTailStillLeavesWorkForEveryShard) {
  std::vector<uint64_t> weights = {1, 1, 1, 1000};
  std::vector<ShardRange> ranges = PartitionByWorkload(weights, 2);
  ASSERT_EQ(ranges.size(), 2u);
  ExpectTiles(ranges, weights.size());
  EXPECT_EQ(ranges[1].begin, 3u);  // light prefix together, hot row alone
  EXPECT_EQ(MaxWeight(ranges), 1000u);
}

TEST(PartitionByWorkload, ZeroWeightsCountAsOne) {
  std::vector<uint64_t> weights(8, 0);
  std::vector<ShardRange> ranges = PartitionByWorkload(weights, 4);
  ASSERT_EQ(ranges.size(), 4u);
  ExpectTiles(ranges, weights.size());
  for (const ShardRange& r : ranges) EXPECT_EQ(r.end - r.begin, 2u);
}

TEST(PartitionByWorkload, SkewedRandomWorkloadBeatsEqualCountSplit) {
  // Zipf-ish weights: a clustered handful of heavy candidates before many
  // light ones (the pattern that wrecks an equal-count split).
  std::vector<uint64_t> weights;
  uint64_t total = 0;
  for (size_t i = 0; i < 256; ++i) {
    uint64_t w = (i < 4) ? 4096 : 1 + i % 7;
    weights.push_back(w);
    total += w;
  }
  const size_t shards = 4;
  std::vector<ShardRange> ranges = PartitionByWorkload(weights, shards);
  ASSERT_EQ(ranges.size(), shards);
  ExpectTiles(ranges, weights.size());

  uint64_t equal_count_worst = 0;
  const size_t per = weights.size() / shards;
  for (size_t s = 0; s < shards; ++s) {
    uint64_t sum = 0;
    for (size_t i = s * per; i < (s + 1) * per; ++i) sum += weights[i];
    equal_count_worst = std::max(equal_count_worst, sum);
  }
  // The weighted split must strictly beat the count split's worst shard
  // and stay within 2x of the ideal mean.
  EXPECT_LT(MaxWeight(ranges), equal_count_worst);
  EXPECT_LE(MaxWeight(ranges), 2 * (total / shards + 1));
}

}  // namespace
}  // namespace gsi
