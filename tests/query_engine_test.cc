// QueryEngine: concurrent batches must be bit-identical to sequential
// GsiMatcher::Find — same match sets AND same per-query simulated device
// counters (worker devices are private, so nothing leaks across queries) —
// and invalid tuning options must surface as InvalidArgument, not abort.

#include <gtest/gtest.h>

#include <vector>

#include "gsi/matcher.h"
#include "gsi/query_engine.h"
#include "test_util.h"

namespace gsi {
namespace {

/// 5 data graphs x 10 queries = the 50 generated query/data pairs of the
/// batch-vs-sequential acceptance bar.
struct Workload {
  Graph data;
  std::vector<Graph> queries;
};

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Workload w;
    w.data = testing::RandomGraph(/*n=*/300, /*edges_per_vertex=*/3,
                                  /*num_vlabels=*/4, /*num_elabels=*/3,
                                  seed * 100);
    for (uint64_t q = 0; q < 10; ++q) {
      w.queries.push_back(testing::RandomQuery(w.data, /*num_vertices=*/5,
                                               seed * 1000 + q));
    }
    out.push_back(std::move(w));
  }
  return out;
}

TEST(QueryEngine, BatchMatchesSequentialOn50Pairs) {
  for (const GsiOptions& options : {DefaultGsiOptions(), GsiOptOptions()}) {
    for (Workload& w : MakeWorkloads()) {
      GsiMatcher sequential(w.data, options);
      QueryEngine engine(w.data, options);
      ASSERT_TRUE(engine.init_status().ok());

      BatchOptions bo;
      bo.num_threads = 4;
      BatchResult batch = engine.RunBatch(w.queries, bo);
      ASSERT_EQ(batch.per_query.size(), w.queries.size());
      EXPECT_EQ(batch.stats.total, w.queries.size());
      EXPECT_EQ(batch.stats.ok + batch.stats.failed, batch.stats.total);

      for (size_t i = 0; i < w.queries.size(); ++i) {
        Result<QueryResult> expected = sequential.Find(w.queries[i]);
        const Result<QueryResult>& got = batch.per_query[i];
        ASSERT_EQ(expected.ok(), got.ok()) << "query " << i;
        if (!expected.ok()) continue;
        EXPECT_EQ(got->AllMatchesSorted(), expected->AllMatchesSorted())
            << "query " << i;
      }
    }
  }
}

TEST(QueryEngine, PerQueryStatsIsolatedAcrossThreads) {
  // The simulation is deterministic, so if worker devices were shared (or
  // counters leaked across queries) the per-query MemStats deltas could not
  // all equal their sequential values.
  Workload w = std::move(MakeWorkloads()[0]);
  GsiMatcher sequential(w.data, GsiOptOptions());
  QueryEngine engine(w.data, GsiOptOptions());

  BatchOptions bo;
  bo.num_threads = 4;
  BatchResult batch = engine.RunBatch(w.queries, bo);

  gpusim::MemStats expected_sum;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    Result<QueryResult> expected = sequential.Find(w.queries[i]);
    const Result<QueryResult>& got = batch.per_query[i];
    ASSERT_TRUE(expected.ok() && got.ok()) << "query " << i;
    EXPECT_EQ(got->stats.filter.gld, expected->stats.filter.gld) << i;
    EXPECT_EQ(got->stats.join.gld, expected->stats.join.gld) << i;
    EXPECT_EQ(got->stats.join.gst, expected->stats.join.gst) << i;
    EXPECT_EQ(got->stats.join.simulated_cycles,
              expected->stats.join.simulated_cycles)
        << i;
    EXPECT_DOUBLE_EQ(got->stats.total_ms, expected->stats.total_ms) << i;
    expected_sum += expected->stats.filter;
    expected_sum += expected->stats.join;
  }
  // The aggregate device counters are the sum of the per-query phases.
  EXPECT_EQ(batch.stats.device.gld, expected_sum.gld);
  EXPECT_EQ(batch.stats.device.gst, expected_sum.gst);
}

TEST(QueryEngine, BatchStatsAggregates) {
  Workload w = std::move(MakeWorkloads()[1]);
  QueryEngine engine(w.data, GsiOptOptions());
  BatchOptions bo;
  bo.num_threads = 2;
  BatchResult batch = engine.RunBatch(w.queries, bo);
  EXPECT_EQ(batch.stats.ok, w.queries.size());  // generated queries match
  EXPECT_GT(batch.stats.queries_per_sec, 0);
  // With zero failures the goodput equals the raw throughput.
  EXPECT_DOUBLE_EQ(batch.stats.ok_queries_per_sec,
                   batch.stats.queries_per_sec);
  EXPECT_EQ(batch.stats.num_workers, 2u);
  EXPECT_GT(batch.stats.sum_simulated_ms, 0);
  EXPECT_LE(batch.stats.p50_simulated_ms, batch.stats.p99_simulated_ms);
  EXPECT_GT(batch.stats.p50_simulated_ms, 0);
}

// Regression: queries_per_sec counted failed queries in its numerator, so a
// batch where every query fails still reported a rosy throughput and
// silently-zero percentiles. The ok-based goodput must report 0.
TEST(QueryEngine, AllFailedBatchReportsZeroGoodput) {
  Workload w = std::move(MakeWorkloads()[0]);
  QueryEngine engine(w.data, DefaultGsiOptions());
  std::vector<Graph> bad(8);  // empty queries -> InvalidArgument each
  BatchOptions bo;
  bo.num_threads = 4;
  BatchResult batch = engine.RunBatch(bad, bo);
  EXPECT_EQ(batch.stats.total, bad.size());
  EXPECT_EQ(batch.stats.ok, 0u);
  EXPECT_EQ(batch.stats.failed, bad.size());
  EXPECT_EQ(batch.stats.ok_queries_per_sec, 0);
  // The raw rate still counts submissions; the percentiles stay 0 because
  // there is no successful latency to report.
  EXPECT_GT(batch.stats.queries_per_sec, 0);
  EXPECT_EQ(batch.stats.p50_simulated_ms, 0);
  EXPECT_EQ(batch.stats.p99_simulated_ms, 0);
  for (const Result<QueryResult>& r : batch.per_query) {
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(QueryEngine, ReportsClampedWorkerCount) {
  Workload w = std::move(MakeWorkloads()[2]);
  QueryEngine engine(w.data, DefaultGsiOptions());

  BatchOptions bo;
  bo.num_threads = 4;
  EXPECT_EQ(engine.RunBatch(w.queries, bo).stats.num_workers, 4u);

  // More workers than queries clamps to the query count; nonsense thread
  // counts clamp to one.
  std::vector<Graph> one(w.queries.begin(), w.queries.begin() + 1);
  bo.num_threads = 64;
  EXPECT_EQ(engine.RunBatch(one, bo).stats.num_workers, 1u);
  bo.num_threads = -3;
  EXPECT_EQ(engine.RunBatch(one, bo).stats.num_workers, 1u);

  // Nothing ran: no workers, and the empty batch keeps every rate at 0.
  BatchResult empty = engine.RunBatch({});
  EXPECT_EQ(empty.stats.num_workers, 0u);
  EXPECT_EQ(empty.stats.ok_queries_per_sec, 0);
}

TEST(QueryEngine, EmptyBatchAndThreadClamping) {
  Workload w = std::move(MakeWorkloads()[2]);
  QueryEngine engine(w.data, DefaultGsiOptions());

  BatchResult empty = engine.RunBatch({});
  EXPECT_TRUE(empty.per_query.empty());
  EXPECT_EQ(empty.stats.total, 0u);

  // More threads than queries, and a nonsense thread count, both clamp.
  std::vector<Graph> one(w.queries.begin(), w.queries.begin() + 1);
  for (int threads : {-3, 0, 64}) {
    BatchOptions bo;
    bo.num_threads = threads;
    BatchResult b = engine.RunBatch(one, bo);
    ASSERT_EQ(b.per_query.size(), 1u);
    EXPECT_TRUE(b.per_query[0].ok());
  }
}

TEST(QueryEngine, SingleRunMatchesSequential) {
  Workload w = std::move(MakeWorkloads()[3]);
  GsiMatcher sequential(w.data, GsiOptOptions());
  QueryEngine engine(w.data, GsiOptOptions());
  Result<QueryResult> expected = sequential.Find(w.queries[0]);
  Result<QueryResult> got = engine.Execute({.query = &w.queries[0]});
  ASSERT_TRUE(expected.ok() && got.ok());
  EXPECT_EQ(got->AllMatchesSorted(), expected->AllMatchesSorted());
}

TEST(QueryEngine, ExecRequestMatchesDeprecatedOverloads) {
  // Every execution target is one ExecRequest: on each, Execute must return
  // Find's table, and ExecutePaged's manifest must materialize to the same
  // table and stats.
  Workload w = std::move(MakeWorkloads()[2]);
  GsiMatcher sequential(w.data, GsiOptOptions());
  QueryEngine engine(w.data, GsiOptOptions());
  gpusim::Device p0, p1;
  std::vector<gpusim::Device*> part_devs{&p0, &p1};
  Result<ReplicatedGraph> pg = ReplicatedGraph::Build(
      part_devs, w.data, engine.options(), HashVertexPartitioner(),
      /*partitions=*/2, /*replicas=*/1);
  ASSERT_TRUE(pg.ok());
  const ReplicaSelection sel = CompactSelection(*pg);
  for (size_t q = 0; q < 3; ++q) {
    Result<QueryResult> expected = sequential.Find(w.queries[q]);
    ASSERT_TRUE(expected.ok());

    gpusim::Device d0, d1;
    d0.set_ordinal(0);
    d1.set_ordinal(1);
    std::vector<gpusim::Device*> devs{&d0, &d1};
    ShardOptions shard;
    shard.min_rows_per_shard = 1;
    const QueryEngine::ExecRequest requests[] = {
        // No target: a fresh private device per call.
        {.query = &w.queries[q]},
        // Sharded target.
        {.query = &w.queries[q], .devices = devs, .shard = shard},
        // Partitioned target (R = 1).
        {.query = &w.queries[q], .replicated = &*pg, .selection = &sel},
    };
    for (const QueryEngine::ExecRequest& req : requests) {
      Result<QueryResult> via_execute = engine.Execute(req);
      ASSERT_TRUE(via_execute.ok());
      EXPECT_TRUE(via_execute->TableEquals(*expected));

      // Paged form: materializing the manifest reproduces the table.
      Result<PagedQueryResult> paged = engine.ExecutePaged(req);
      ASSERT_TRUE(paged.ok());
      EXPECT_EQ(paged->num_matches(), expected->table.rows());
      EXPECT_EQ(paged->stats.total_ms, via_execute->stats.total_ms);
      gpusim::Device scratch;
      QueryResult merged = ToQueryResult(std::move(paged.value()), scratch);
      EXPECT_TRUE(merged.TableEquals(*expected));
    }
  }
}

TEST(QueryEngine, ExecRequestValidation) {
  Workload w = std::move(MakeWorkloads()[2]);
  QueryEngine engine(w.data, GsiOptOptions());

  QueryEngine::ExecRequest no_query;
  EXPECT_EQ(engine.Execute(no_query).status().code(),
            StatusCode::kInvalidArgument);

  // A selection without a replicated target is rejected up front.
  ReplicaSelection sel;
  QueryEngine::ExecRequest dangling;
  dangling.query = &w.queries[0];
  dangling.selection = &sel;
  EXPECT_EQ(engine.Execute(dangling).status().code(),
            StatusCode::kInvalidArgument);

  // More than one execution target is ambiguous, not silently prioritized.
  gpusim::Device dev;
  std::vector<gpusim::Device*> devs{&dev};
  gpusim::Device build_dev;
  std::vector<gpusim::Device*> build_devs{&build_dev};
  Result<ReplicatedGraph> pg = ReplicatedGraph::Build(
      build_devs, w.data, engine.options(), HashVertexPartitioner(),
      /*partitions=*/1, /*replicas=*/1);
  ASSERT_TRUE(pg.ok());
  const ReplicaSelection compact = CompactSelection(*pg);
  QueryEngine::ExecRequest two_targets;
  two_targets.query = &w.queries[0];
  two_targets.devices = devs;
  two_targets.replicated = &pg.value();
  two_targets.selection = &compact;
  EXPECT_EQ(engine.Execute(two_targets).status().code(),
            StatusCode::kInvalidArgument);

  // A null device would crash and a repeated one would run two slices on
  // one device at once: both are rejected before any device is touched.
  gpusim::Device other;
  const std::vector<std::vector<gpusim::Device*>> bad_devices = {
      {nullptr}, {&dev, nullptr}, {&dev, &dev}, {&dev, &other, &dev}};
  for (const std::vector<gpusim::Device*>& bad : bad_devices) {
    const QueryEngine::ExecRequest req{.query = &w.queries[0],
                                       .devices = bad};
    EXPECT_EQ(engine.Execute(req).status().code(),
              StatusCode::kInvalidArgument)
        << bad.size() << " devices";
    EXPECT_EQ(engine.ExecutePaged(req).status().code(),
              StatusCode::kInvalidArgument)
        << bad.size() << " devices";
  }
  EXPECT_EQ(dev.stats().kernel_launches, 0u);
  EXPECT_EQ(other.stats().kernel_launches, 0u);
}

TEST(QueryEngine, RejectsInvalidQueries) {
  Workload w = std::move(MakeWorkloads()[4]);
  QueryEngine engine(w.data, DefaultGsiOptions());
  const Graph empty;
  Result<QueryResult> r = engine.Execute({.query = &empty});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// --- Regression: user-supplied tuning values used to abort the process in
// PlanChunks (GSI_CHECK_MSG) or PCSR build; they must be InvalidArgument.

GsiOptions BadLoadBalanceOptions() {
  GsiOptions o = GsiOptOptions();
  o.join.w1 = 64;  // violates W1 > W2 (block size 1024)
  o.join.w3 = 16;  // violates W3 >= 32
  return o;
}

TEST(OptionsValidation, BadLoadBalanceThresholdsAreInvalidArgument) {
  Workload w = std::move(MakeWorkloads()[0]);
  GsiMatcher matcher(w.data, BadLoadBalanceOptions());
  EXPECT_EQ(matcher.init_status().code(), StatusCode::kInvalidArgument);
  Result<QueryResult> r = matcher.Find(w.queries[0]);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  QueryEngine engine(w.data, BadLoadBalanceOptions());
  EXPECT_EQ(engine.init_status().code(), StatusCode::kInvalidArgument);
  BatchResult batch = engine.RunBatch(w.queries);
  EXPECT_EQ(batch.stats.failed, w.queries.size());
  for (const Result<QueryResult>& q : batch.per_query) {
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(OptionsValidation, BadGpnAndMaxRowsAreInvalidArgument) {
  Workload w = std::move(MakeWorkloads()[0]);

  GsiOptions bad_gpn;
  bad_gpn.join.gpn = 0;
  EXPECT_EQ(GsiMatcher(w.data, bad_gpn).init_status().code(),
            StatusCode::kInvalidArgument);
  bad_gpn.join.gpn = 17;
  EXPECT_EQ(GsiMatcher(w.data, bad_gpn).init_status().code(),
            StatusCode::kInvalidArgument);

  GsiOptions bad_rows;
  bad_rows.join.max_rows = 0;
  EXPECT_EQ(QueryEngine(w.data, bad_rows).init_status().code(),
            StatusCode::kInvalidArgument);

  // Signature width outside Signature::Encode's bounds used to abort inside
  // the constructor before init_status could report.
  for (int bits : {0, 32, 100, 544}) {
    GsiOptions bad_bits;
    bad_bits.filter.signature_bits = bits;
    EXPECT_EQ(QueryEngine(w.data, bad_bits).init_status().code(),
              StatusCode::kInvalidArgument)
        << bits;
  }
  // Non-signature strategies never encode; a stale width must not reject.
  GsiOptions ld;
  ld.filter.strategy = FilterStrategy::kLabelDegree;
  ld.filter.signature_bits = 0;
  EXPECT_TRUE(QueryEngine(w.data, ld).init_status().ok());

  // CSR storage never consults gpn; a stale gpn value must not reject it.
  GsiOptions csr = GsiMinusOptions();
  csr.join.gpn = 0;
  EXPECT_TRUE(GsiMatcher(w.data, csr).init_status().ok());

  EXPECT_TRUE(ValidateGsiOptions(DefaultGsiOptions()).ok());
  EXPECT_TRUE(ValidateGsiOptions(GsiOptOptions()).ok());
  EXPECT_TRUE(ValidateGsiOptions(GsiMinusOptions()).ok());
}

TEST(OptionsValidation, WarpFriendlySetOpWithoutBitmapsIsInvalidArgument) {
  // The GPU-friendly set op probes the candidate bitsets, so skipping them
  // used to abort in the first join.
  Workload w = std::move(MakeWorkloads()[0]);
  GsiOptions bad = GsiOptOptions();
  bad.filter.build_bitmaps = false;
  GsiMatcher matcher(w.data, bad);
  EXPECT_EQ(matcher.init_status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(matcher.Find(w.queries[0]).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(QueryEngine(w.data, bad).init_status().code(),
            StatusCode::kInvalidArgument);

  // The naive set op binary-searches the sorted lists and never reads a
  // bitset.
  GsiOptions naive = GsiMinusOptions();
  naive.filter.build_bitmaps = false;
  GsiMatcher naive_matcher(w.data, naive);
  ASSERT_TRUE(naive_matcher.init_status().ok());
  EXPECT_TRUE(QueryEngine(w.data, naive).init_status().ok());
  Result<QueryResult> got = naive_matcher.Find(w.queries[0]);
  ASSERT_TRUE(got.ok());
  Result<QueryResult> want = GsiMatcher(w.data, GsiMinusOptions())
                                 .Find(w.queries[0]);
  ASSERT_TRUE(want.ok());
  EXPECT_TRUE(got->TableEquals(*want));
}

}  // namespace
}  // namespace gsi
