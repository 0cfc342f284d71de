// QueryService: streamed submit/poll results must be bit-identical to
// sequential GsiMatcher::Find (with and without the filter cache), the
// bounded admission queue must shed or backpressure load, and queued
// tickets must support cancellation and deadlines.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gsi/matcher.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "test_util.h"

namespace gsi {
namespace {

/// Small data graph: fast queries for correctness sweeps.
Graph SmallData(uint64_t seed) {
  return testing::RandomGraph(300, 3, 4, 3, seed);
}

/// Large data graph: each query runs long enough (milliseconds) that a
/// burst of microsecond-scale Submits deterministically outpaces the
/// workers (used by the overload / cancellation / deadline tests).
const Graph& HeavyData() {
  static const Graph& g = *new Graph(testing::RandomGraph(3000, 4, 3, 2, 5));
  return g;
}

TEST(QueryService, StreamedResultsMatchSequentialFind) {
  for (bool cache : {false, true}) {
    for (uint64_t seed : {1, 2, 3}) {
      Graph data = SmallData(seed * 100);
      std::vector<Graph> queries;
      for (uint64_t q = 0; q < 10; ++q) {
        queries.push_back(testing::RandomQuery(data, 5, seed * 1000 + q));
      }
      GsiMatcher sequential(data, GsiOptOptions());

      ServiceOptions so;
      so.num_workers = 4;
      so.enable_filter_cache = cache;
      QueryService service(data, GsiOptOptions(), so);
      ASSERT_TRUE(service.init_status().ok());

      std::vector<QueryTicket> tickets;
      for (const Graph& q : queries) {
        Result<QueryTicket> t = service.Submit(q);
        ASSERT_TRUE(t.ok());
        tickets.push_back(*t);
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        Result<QueryResult> expected = sequential.Find(queries[i]);
        Result<QueryResult> got = service.Wait(tickets[i]);
        ASSERT_EQ(expected.ok(), got.ok()) << "query " << i;
        if (!expected.ok()) continue;
        EXPECT_EQ(got->AllMatchesSorted(), expected->AllMatchesSorted())
            << "query " << i << " cache=" << cache;
      }
    }
  }
}

TEST(QueryService, HeavyQueriesFanOutAcrossTheDevicePool) {
  Graph data = SmallData(17);
  GsiMatcher sequential(data, GsiOptOptions());

  ServiceOptions so;
  so.num_workers = 1;            // one worker...
  so.num_devices = 4;            // ...with three idle devices to fan out to
  so.max_shards_per_query = 4;
  so.shard_min_candidates = 1;   // every query counts as heavy
  so.shard.min_rows_per_shard = 1;
  QueryService service(data, GsiOptOptions(), so);
  ASSERT_TRUE(service.init_status().ok());

  for (uint64_t seed = 0; seed < 5; ++seed) {
    Graph query = testing::RandomQuery(data, 5, 700 + seed);
    Result<QueryTicket> t = service.Submit(query);
    ASSERT_TRUE(t.ok());
    Result<QueryResult> got = service.Wait(*t);
    Result<QueryResult> expected = sequential.Find(query);
    ASSERT_EQ(expected.ok(), got.ok()) << seed;
    if (!expected.ok()) continue;
    // Bit-identical, not just the same match set: sharding must not
    // reorder the table.
    ASSERT_EQ(got->table.rows(), expected->table.rows()) << seed;
    ASSERT_EQ(got->table.cols(), expected->table.cols()) << seed;
    EXPECT_EQ(got->column_to_query, expected->column_to_query);
    for (size_t r = 0; r < expected->table.rows(); ++r) {
      for (size_t c = 0; c < expected->table.cols(); ++c) {
        ASSERT_EQ(got->table.At(r, c), expected->table.At(r, c))
            << seed << " cell (" << r << ", " << c << ")";
      }
    }
  }

  ServiceStats stats = service.stats();
  EXPECT_GE(stats.sharded_queries, 1u);
  EXPECT_GE(stats.shards_executed, 2 * stats.sharded_queries);
  EXPECT_GE(stats.max_shard_skew, 1.0);
  EXPECT_EQ(stats.pool.in_use, 0u);  // everything returned to the pool
  EXPECT_GE(stats.pool.peak_in_use, 2u);
}

TEST(QueryService, ShardingOffKeepsSingleDeviceExecution) {
  Graph data = SmallData(23);
  ServiceOptions so;
  so.num_workers = 2;  // default max_shards_per_query = 1
  QueryService service(data, GsiOptOptions(), so);
  Graph query = testing::RandomQuery(data, 4, 99);
  Result<QueryTicket> t = service.Submit(query);
  ASSERT_TRUE(t.ok());
  Result<QueryResult> got = service.Wait(*t);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->stats.shards_used, 1u);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sharded_queries, 0u);
  EXPECT_EQ(stats.shards_executed, 0u);
}

TEST(QueryService, CacheHitsStayBitIdenticalAndSpeedUpTheFilterPhase) {
  Graph data = SmallData(42);
  Graph query = testing::RandomQuery(data, 5, 4242);
  GsiMatcher sequential(data, GsiOptOptions());
  Result<QueryResult> expected = sequential.Find(query);
  ASSERT_TRUE(expected.ok());

  ServiceOptions so;
  so.num_workers = 1;
  so.enable_filter_cache = true;
  QueryService service(data, GsiOptOptions(), so);

  // Cold pass misses and populates; warm pass hits.
  Result<QueryTicket> cold = service.Submit(query);
  ASSERT_TRUE(cold.ok());
  Result<QueryResult> cold_r = service.Wait(*cold);
  ASSERT_TRUE(cold_r.ok());

  Result<QueryTicket> warm = service.Submit(query);
  ASSERT_TRUE(warm.ok());
  Result<QueryResult> warm_r = service.Wait(*warm);
  ASSERT_TRUE(warm_r.ok());

  EXPECT_EQ(cold_r->AllMatchesSorted(), expected->AllMatchesSorted());
  EXPECT_EQ(warm_r->AllMatchesSorted(), expected->AllMatchesSorted());

  // Identical join work, strictly cheaper filter work on the hit.
  EXPECT_EQ(warm_r->stats.join.simulated_cycles,
            cold_r->stats.join.simulated_cycles);
  EXPECT_LT(warm_r->stats.filter.simulated_cycles,
            cold_r->stats.filter.simulated_cycles);
  EXPECT_EQ(warm_r->stats.min_candidate_size,
            cold_r->stats.min_candidate_size);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.entries, 1u);
  EXPECT_GT(stats.cache.bytes, 0u);
}

TEST(QueryService, PartitionedDataGraphStaysBitIdentical) {
  for (bool cache : {false, true}) {
    Graph data = SmallData(700);
    std::vector<Graph> queries;
    for (uint64_t q = 0; q < 8; ++q) {
      queries.push_back(testing::RandomQuery(data, 5, 7000 + q));
    }
    GsiMatcher sequential(data, GsiOptOptions());

    ServiceOptions so;
    so.num_workers = 3;
    so.num_devices = 4;  // the data graph splits 4 ways
    so.partition_data_graph = true;
    so.enable_filter_cache = cache;
    QueryService service(data, GsiOptOptions(), so);
    ASSERT_TRUE(service.init_status().ok())
        << service.init_status().ToString();

    std::vector<QueryTicket> tickets;
    for (const Graph& q : queries) {
      Result<QueryTicket> t = service.Submit(q);
      ASSERT_TRUE(t.ok());
      tickets.push_back(*t);
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      Result<QueryResult> expected = sequential.Find(queries[i]);
      Result<QueryResult> got = service.Wait(tickets[i]);
      ASSERT_EQ(expected.ok(), got.ok()) << "query " << i;
      if (!expected.ok()) continue;
      EXPECT_TRUE(got->TableEquals(*expected))
          << "query " << i << " cache=" << cache;
      EXPECT_GE(got->stats.partitions_used, 1u);
      // One partition per device and no replicas: every query holds the
      // whole pool, one lane per partition.
      EXPECT_EQ(got->stats.replica_lanes, 4u);
    }
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.partitioned_queries, stats.completed_ok);
    EXPECT_GT(stats.halo_bytes, 0u);
    EXPECT_GT(stats.remote_probes, 0u);
    EXPECT_DOUBLE_EQ(stats.avg_replica_lanes, 4.0);
    // Queries lease through the group primitive, one single-device group
    // per partition.
    EXPECT_GE(stats.pool.group_acquires, stats.completed_ok);
  }
}

TEST(QueryService, PartitionModeRejectsShardingCombination) {
  Graph data = SmallData(900);
  ServiceOptions so;
  so.partition_data_graph = true;
  so.max_shards_per_query = 4;
  QueryService service(data, GsiOptOptions(), so);
  EXPECT_EQ(service.init_status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Submit(testing::RandomQuery(data, 3, 1)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryService, RejectsWithResourceExhaustedWhenQueueIsFull) {
  ServiceOptions so;
  so.num_workers = 1;
  so.max_queue_depth = 2;
  so.overload = OverloadPolicy::kReject;
  QueryService service(HeavyData(), GsiOptOptions(), so);

  Graph query = testing::RandomQuery(HeavyData(), 6, 9);
  size_t rejected = 0;
  std::vector<QueryTicket> tickets;
  // 40 instant Submits against a single worker chewing multi-ms queries:
  // the depth-2 queue must overflow.
  for (int i = 0; i < 40; ++i) {
    Result<QueryTicket> t = service.Submit(query);
    if (t.ok()) {
      tickets.push_back(*t);
    } else {
      EXPECT_EQ(t.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);

  for (const QueryTicket& t : tickets) {
    // Every admitted ticket resolves: ok, or a per-query engine error
    // (e.g. the intermediate-row cap) — never cancelled or dropped.
    Result<QueryResult> r = service.Wait(t);
    EXPECT_NE(r.status().code(), StatusCode::kCancelled)
        << r.status().ToString();
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 40u);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.admitted, 40u - rejected);
  EXPECT_EQ(stats.completed_ok + stats.failed, tickets.size());
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(QueryService, BlockPolicyBackpressuresInsteadOfRejecting) {
  ServiceOptions so;
  so.num_workers = 2;
  so.max_queue_depth = 2;
  so.overload = OverloadPolicy::kBlock;
  Graph data = SmallData(7);
  QueryService service(data, GsiOptOptions(), so);

  Graph query = testing::RandomQuery(data, 5, 11);
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 30; ++i) {
    Result<QueryTicket> t = service.Submit(query);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    tickets.push_back(*t);
  }
  service.Drain();
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 30u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.completed_ok, 30u);
  EXPECT_GT(stats.p50_simulated_ms, 0);
  EXPECT_LE(stats.p50_simulated_ms, stats.p99_simulated_ms);
}

TEST(QueryService, CancelRemovesQueuedTicket) {
  ServiceOptions so;
  so.num_workers = 1;
  so.max_queue_depth = 64;
  QueryService service(HeavyData(), GsiOptOptions(), so);

  Graph query = testing::RandomQuery(HeavyData(), 6, 13);
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 20; ++i) {
    Result<QueryTicket> t = service.Submit(query);
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  // The single worker is still inside one of the first queries; the last
  // ticket cannot have started.
  EXPECT_TRUE(service.Cancel(tickets.back()));
  Result<QueryResult> r = service.Wait(tickets.back());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  // Cancelling a finished ticket is a no-op.
  EXPECT_FALSE(service.Cancel(tickets.back()));
  service.Drain();
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(QueryService, QueuedDeadlineExpiresBeforeExecution) {
  ServiceOptions so;
  so.num_workers = 1;
  so.max_queue_depth = 64;
  QueryService service(HeavyData(), GsiOptOptions(), so);

  Graph query = testing::RandomQuery(HeavyData(), 6, 17);
  // Park several heavy queries in front...
  std::vector<QueryTicket> front;
  for (int i = 0; i < 10; ++i) {
    Result<QueryTicket> t = service.Submit(query);
    ASSERT_TRUE(t.ok());
    front.push_back(*t);
  }
  // ...then a ticket whose queueing deadline is far shorter than the work
  // already ahead of it.
  SubmitOptions submit;
  submit.deadline_ms = 0.001;
  Result<QueryTicket> doomed = service.Submit(query, submit);
  ASSERT_TRUE(doomed.ok());
  Result<QueryResult> r = service.Wait(*doomed);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  service.Drain();
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.completed_ok + stats.failed, front.size());
}

TEST(QueryService, ResultsAreTakenExactlyOnce) {
  Graph data = SmallData(31);
  QueryService service(data, GsiOptOptions(), ServiceOptions{});
  Result<QueryTicket> t = service.Submit(testing::RandomQuery(data, 5, 3));
  ASSERT_TRUE(t.ok());

  // Poll until completion (exercises the nullopt path), then the result is
  // consumed; any later observer -- Wait, Poll, or FetchPage -- reports a
  // clean NotFound that tells the caller to re-submit.
  std::optional<Result<QueryResult>> polled;
  while (!(polled = service.Poll(*t)).has_value()) {
  }
  EXPECT_TRUE(polled->ok());
  EXPECT_EQ(service.Wait(*t).status().code(), StatusCode::kNotFound);
  EXPECT_NE(service.Wait(*t).status().message().find("re-submit"),
            std::string::npos);
  std::optional<Result<QueryResult>> again = service.Poll(*t);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.FetchPage(*t).status().code(), StatusCode::kNotFound);

  // Invalid tickets are reported, not crashed on.
  QueryTicket invalid;
  EXPECT_EQ(service.Wait(invalid).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(service.Cancel(invalid));
}

TEST(QueryService, ExecutionErrorsLandOnTheTicket) {
  Graph data = SmallData(53);
  QueryService service(data, GsiOptOptions(), ServiceOptions{});
  Result<QueryTicket> t = service.Submit(Graph());  // empty query
  ASSERT_TRUE(t.ok());                              // admission succeeds
  Result<QueryResult> r = service.Wait(*t);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.stats().failed, 1u);
}

// Regression: depth 0 would reject everything under kReject and deadlock
// every Submit under kBlock — it must be rejected at construction.
TEST(QueryService, ZeroQueueDepthIsInvalidArgument) {
  Graph data = SmallData(71);
  ServiceOptions so;
  so.max_queue_depth = 0;
  so.overload = OverloadPolicy::kBlock;
  QueryService service(data, GsiOptOptions(), so);
  EXPECT_EQ(service.init_status().code(), StatusCode::kInvalidArgument);
  Result<QueryTicket> t = service.Submit(testing::RandomQuery(data, 5, 1));
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryService, InvalidOptionsSurfaceThroughSubmit) {
  GsiOptions bad = GsiOptOptions();
  bad.join.max_rows = 0;
  Graph data = SmallData(61);
  QueryService service(data, bad, ServiceOptions{});
  EXPECT_EQ(service.init_status().code(), StatusCode::kInvalidArgument);
  Result<QueryTicket> t = service.Submit(testing::RandomQuery(data, 5, 2));
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

// Lock contract: stats() copies the counters under mu_ and does the
// expensive work (latency sort) outside it — scraping must never deadlock
// against workers (who take mu_ only to pop/finish, never while matching)
// and every snapshot must be internally coherent.
TEST(QueryService, StatsScrapesStayCoherentWhileWorkersAreBusy) {
  ServiceOptions so;
  so.num_workers = 2;
  so.max_queue_depth = 64;
  QueryService service(HeavyData(), GsiOptOptions(), so);

  Graph query = testing::RandomQuery(HeavyData(), 6, 23);
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 12; ++i) {
    Result<QueryTicket> t = service.Submit(query);
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  uint64_t last_done = 0;
  for (int i = 0; i < 200; ++i) {
    ServiceStats s = service.stats();
    EXPECT_EQ(s.submitted, 12u);
    EXPECT_EQ(s.admitted, 12u);
    // queued + running + finished always accounts for every admission.
    EXPECT_EQ(s.queue_depth + s.in_flight + s.completed_ok + s.failed +
                  s.cancelled + s.expired,
              12u);
    uint64_t done = s.completed_ok + s.failed;
    EXPECT_GE(done, last_done) << "completion counter moved backwards";
    last_done = done;
  }
  service.Drain();
  ServiceStats s = service.stats();
  EXPECT_EQ(s.completed_ok + s.failed, 12u);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.in_flight, 0u);
}

// Lock contract: Drain (wait on done_cv_ until queue and in-flight are
// empty) is safe against concurrent Submits — it simply waits for whatever
// the submitters add, and once they stop, every ticket is accounted for.
TEST(QueryService, ConcurrentSubmitAndDrainStayCoherent) {
  Graph data = SmallData(83);
  ServiceOptions so;
  so.num_workers = 2;
  so.max_queue_depth = 8;
  so.overload = OverloadPolicy::kBlock;
  QueryService service(data, GsiOptOptions(), so);

  constexpr int kThreads = 3;
  constexpr int kPerThread = 10;
  std::atomic<int> submitted{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Graph q = testing::RandomQuery(data, 4, 8300 + t * 100 + i);
        Result<QueryTicket> ticket = service.Submit(q);
        ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
        ++submitted;
      }
    });
  }
  // Drain races the submitters: each call returns at *a* quiescent point;
  // none may hang or miss a wakeup.
  for (int i = 0; i < 5; ++i) service.Drain();
  for (std::thread& t : submitters) t.join();
  service.Drain();  // now nothing can be added: full quiescence

  ServiceStats s = service.stats();
  EXPECT_EQ(submitted.load(), kThreads * kPerThread);
  EXPECT_EQ(s.admitted, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.completed_ok + s.failed,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.in_flight, 0u);
}

size_t CountNamedSpans(const obs::Tracer& tracer, const std::string& name) {
  size_t n = 0;
  for (const obs::TraceSpan& s : tracer.Snapshot()) n += (s.name == name);
  return n;
}

TEST(QueryService, TracedTicketExposesTheSpanTree) {
  Graph data = SmallData(311);
  ServiceOptions so;
  so.num_workers = 2;
  QueryService service(data, GsiOptOptions(), so);
  ASSERT_TRUE(service.init_status().ok());

  Graph query = testing::RandomQuery(data, 5, 3111);
  SubmitOptions traced;
  traced.trace = true;
  // The traced ticket finishes before the untraced one is submitted: with
  // both in flight, the traced one could lease device 1, and its spans carry
  // the leased device's ordinal. Alone, it gets device 0 (the pool leases
  // low indices first).
  Result<QueryTicket> on = service.Submit(query, traced);
  ASSERT_TRUE(on.ok());
  ASSERT_TRUE(service.Wait(*on).ok());
  Result<QueryTicket> off = service.Submit(query);
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(service.Wait(*off).ok());

  // Untraced tickets carry no tracer — tracing is strictly opt-in.
  EXPECT_EQ(service.GetTrace(*off), nullptr);
  EXPECT_EQ(service.GetTrace(QueryTicket{}), nullptr);

  std::shared_ptr<const obs::Tracer> trace = service.GetTrace(*on);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(CountNamedSpans(*trace, "queue_wait"), 1u);
  EXPECT_EQ(CountNamedSpans(*trace, "query"), 1u);
  EXPECT_GE(CountNamedSpans(*trace, "filter"), 1u);
  EXPECT_GE(CountNamedSpans(*trace, "join_step"), 1u);
  // The service phases sit on the host track; execution spans on device 0,
  // the one device the query leased.
  for (const obs::TraceSpan& s : trace->Snapshot()) {
    if (s.name == "queue_wait" || s.name == "query") {
      EXPECT_EQ(s.device, obs::kHostDevice) << s.name;
    }
    if (s.name == "filter" || s.name == "join_step") {
      EXPECT_EQ(s.device, 0) << s.name;
    }
  }
  // Both exporters render the retained trace.
  EXPECT_NE(trace->ToChromeJson().find("\"queue_wait\""), std::string::npos);
  EXPECT_NE(trace->ToTreeString().find("query"), std::string::npos);
}

/// Parses Prometheus text exposition into `name{labels}` -> value, failing
/// the test on any malformed line.
std::map<std::string, double> ParsePrometheus(const std::string& text) {
  std::map<std::string, double> samples;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << "malformed: " << line;
    if (space == std::string::npos) continue;
    size_t parsed = 0;
    const double value = std::stod(line.substr(space + 1), &parsed);
    EXPECT_EQ(space + 1 + parsed, line.size()) << "bad value: " << line;
    samples[line.substr(0, space)] = value;
  }
  return samples;
}

TEST(QueryService, ExportMetricsMatchesTheStatsSnapshot) {
  Graph data = SmallData(313);
  ServiceOptions so;
  so.num_workers = 2;
  so.enable_filter_cache = true;
  QueryService service(data, GsiOptOptions(), so);
  ASSERT_TRUE(service.init_status().ok());

  for (uint64_t q = 0; q < 6; ++q) {
    ASSERT_TRUE(service.Submit(testing::RandomQuery(data, 5, 3130 + q)).ok());
  }
  service.Drain();

  const std::string text = service.ExportMetrics();
  std::map<std::string, double> samples = ParsePrometheus(text);
  ServiceStats stats = service.stats();
  EXPECT_EQ(samples.at("gsi_service_submitted_total"),
            static_cast<double>(stats.submitted));
  EXPECT_EQ(samples.at("gsi_service_completed_total{status=\"ok\"}"),
            static_cast<double>(stats.completed_ok));
  EXPECT_EQ(samples.at("gsi_service_completed_total{status=\"error\"}"),
            static_cast<double>(stats.failed));
  EXPECT_EQ(samples.at("gsi_service_queue_depth"), 0.0);
  EXPECT_EQ(samples.at("gsi_service_in_flight"), 0.0);
  // The latency histogram observed exactly the completed-ok queries, and
  // its +Inf bucket agrees with its _count (cumulative rendering).
  EXPECT_EQ(samples.at("gsi_query_simulated_ms_count"),
            static_cast<double>(stats.completed_ok));
  EXPECT_EQ(samples.at("gsi_query_simulated_ms_bucket{le=\"+Inf\"}"),
            samples.at("gsi_query_simulated_ms_count"));
  // The filter cache's samples render in the same export.
  EXPECT_NE(text.find("gsi_filter_cache_"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gsi_service_submitted_total counter"),
            std::string::npos);
  // The human snapshot renders the same families.
  EXPECT_NE(service.MetricsDebugString().find("gsi_service_submitted_total"),
            std::string::npos);
}

// Traced and untraced queries race through the service while metrics are
// scraped: every scrape must parse, and the settled export must agree
// with the settled ServiceStats.
TEST(QueryService, ConcurrentTracedQueriesKeepTheRegistryCoherent) {
  Graph data = SmallData(317);
  ServiceOptions so;
  so.num_workers = 4;
  so.max_queue_depth = 64;
  QueryService service(data, GsiOptOptions(), so);
  ASSERT_TRUE(service.init_status().ok());

  constexpr int kThreads = 3;
  constexpr int kPerThread = 5;
  std::mutex tickets_mu;
  std::vector<QueryTicket> traced_tickets;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        SubmitOptions submit;
        submit.trace = (i % 2 == 0);
        Graph q = testing::RandomQuery(data, 4, 31700 + t * 100 + i);
        Result<QueryTicket> ticket = service.Submit(q, submit);
        ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
        if (submit.trace) {
          std::lock_guard<std::mutex> lock(tickets_mu);
          traced_tickets.push_back(*ticket);
        }
      }
    });
  }
  // Scrapes race the workers; each one must still parse cleanly.
  for (int i = 0; i < 20; ++i) ParsePrometheus(service.ExportMetrics());
  for (std::thread& t : submitters) t.join();
  service.Drain();

  for (const QueryTicket& ticket : traced_tickets) {
    std::shared_ptr<const obs::Tracer> trace = service.GetTrace(ticket);
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(CountNamedSpans(*trace, "query"), 1u);
    EXPECT_EQ(CountNamedSpans(*trace, "queue_wait"), 1u);
  }
  std::map<std::string, double> samples =
      ParsePrometheus(service.ExportMetrics());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(samples.at("gsi_service_completed_total{status=\"ok\"}") +
                samples.at("gsi_service_completed_total{status=\"error\"}"),
            static_cast<double>(stats.completed_ok + stats.failed));
  EXPECT_EQ(samples.at("gsi_service_admitted_total"),
            static_cast<double>(stats.admitted));
}

// A scrape renders one stats() snapshot: the latency histogram is copied
// under the same lock as the completion counters, so no scrape can catch
// one side of a completion without the other, however busy the workers.
TEST(QueryService, EveryScrapeIsOneSnapshot) {
  const Graph data = testing::RandomGraph(300, 4, 3, 2, 331);
  std::vector<Graph> queries;
  std::set<std::string> keys;
  for (Graph& q : testing::RandomQuerySet(data, 3, 512, 3310)) {
    if (queries.size() < 64 && keys.insert(FilterCache::KeyOf(q)).second) {
      queries.push_back(std::move(q));
    }
  }
  ASSERT_EQ(queries.size(), 64u);

  ServiceOptions so;
  so.num_workers = 4;
  so.overload = OverloadPolicy::kBlock;
  so.max_queue_depth = 4096;
  QueryService service(data, GsiOptOptions(), so);
  ASSERT_TRUE(service.init_status().ok());

  constexpr size_t kSubmissions = 4000;
  std::atomic<size_t> rejected{0};
  std::atomic<bool> drained{false};
  std::thread submitter([&] {
    for (size_t i = 0; i < kSubmissions; ++i) {
      if (!service.Submit(queries[i % queries.size()]).ok()) ++rejected;
    }
    service.Drain();
    drained = true;
  });
  // Every scrape must agree with itself; count the ones that do not.
  size_t scrapes = 0;
  size_t incoherent = 0;
  std::string first_incoherent;
  do {
    const std::map<std::string, double> samples =
        ParsePrometheus(service.ExportMetrics());
    auto value = [&](const std::string& sample) {
      auto it = samples.find(sample);
      return it == samples.end() ? -1.0 : it->second;
    };
    const double ok = value("gsi_service_completed_total{status=\"ok\"}");
    const double count = value("gsi_query_simulated_ms_count");
    const double inf = value("gsi_query_simulated_ms_bucket{le=\"+Inf\"}");
    if (ok < 0 || count != ok || inf != count) {
      if (incoherent++ == 0) {
        first_incoherent = "scrape " + std::to_string(scrapes) +
                           ": completed ok " + std::to_string(ok) +
                           ", histogram count " + std::to_string(count) +
                           ", +Inf bucket " + std::to_string(inf);
      }
    }
    ++scrapes;
  } while (!drained.load());
  submitter.join();
  EXPECT_EQ(rejected.load(), 0u);
  EXPECT_EQ(incoherent, 0u) << "of " << scrapes << " scrapes; first "
                            << first_incoherent;

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed_ok + stats.failed, kSubmissions);
  EXPECT_EQ(stats.simulated_ms_histogram.count(), stats.completed_ok);
}

// A service whose options were rejected serves nothing, so it exports no
// samples — whichever check rejected it.
TEST(QueryService, InitFailedServiceExportsNoSamples) {
  Graph data = SmallData(337);
  ServiceOptions zero_depth;
  zero_depth.max_queue_depth = 0;
  ServiceOptions sharded_partitions;
  sharded_partitions.partition_data_graph = true;
  sharded_partitions.max_shards_per_query = 4;
  for (const ServiceOptions& so : {zero_depth, sharded_partitions}) {
    QueryService service(data, GsiOptOptions(), so);
    EXPECT_EQ(service.init_status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(service.ExportMetrics(), "");
    EXPECT_EQ(service.MetricsDebugString(), "");
  }
}

TEST(QueryService, DestructorCancelsQueuedWorkWithoutHanging) {
  ServiceOptions so;
  so.num_workers = 1;
  so.max_queue_depth = 64;
  auto service =
      std::make_unique<QueryService>(HeavyData(), GsiOptOptions(), so);
  Graph query = testing::RandomQuery(HeavyData(), 6, 19);
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(service->Submit(query).ok());
  }
  service.reset();  // must cancel the queue, finish in-flight work and join
  SUCCEED();
}

}  // namespace
}  // namespace gsi
