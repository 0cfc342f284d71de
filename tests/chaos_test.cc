// Chaos sweep: inject deterministic faults at varying points across every
// service execution mode (single-device, sharded, partitioned R=1,
// replicated R=2) and assert the tentpole invariant — under any single
// fault with spare capacity (a second device or replica), results stay
// bit-identical to GsiMatcher::Find; with R=1 the query fails cleanly with
// kUnavailable and the service keeps serving after a repair.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gpusim/device.h"
#include "gsi/matcher.h"
#include "service/query_service.h"
#include "test_util.h"
#include "util/status.h"

namespace gsi {
namespace {

Graph ChaosData(uint64_t seed) {
  return testing::RandomGraph(250, 3, 4, 3, seed);
}

/// Submits `query`, waits, and returns the result.
Result<QueryResult> RunThrough(QueryService& service, const Graph& query,
                               int max_attempts = 0) {
  SubmitOptions so;
  so.max_attempts = max_attempts;
  Result<QueryTicket> t = service.Submit(query, so);
  if (!t.ok()) return t.status();
  return service.Wait(*t);
}

/// Fault points swept per mode. Kernel and transaction triggers are sized
/// from the baseline's measured counters (`kernels`, `transactions` = the
/// whole query's charged work), so every plan is guaranteed to trip inside
/// the query: early (1), mid-query (half), and at the very last charge.
/// fail_on_lease catches acquisition itself.
std::vector<gpusim::FaultPlan> FaultPoints(uint64_t kernels,
                                           uint64_t transactions) {
  std::vector<gpusim::FaultPlan> plans;
  for (uint64_t k : {uint64_t{1}, kernels / 2, kernels}) {
    if (k == 0) continue;
    gpusim::FaultPlan p;
    p.fail_at_kernel_launch = k;
    plans.push_back(p);
  }
  for (uint64_t n : {uint64_t{1}, transactions / 2, transactions}) {
    if (n == 0) continue;
    gpusim::FaultPlan p;
    p.fail_after_transactions = n;
    plans.push_back(p);
  }
  gpusim::FaultPlan lease;
  lease.fail_on_lease = true;
  plans.push_back(lease);
  return plans;
}

uint64_t TotalKernels(const QueryStats& s) {
  return s.filter.kernel_launches + s.join.kernel_launches;
}

uint64_t TotalTransactions(const QueryStats& s) {
  return s.filter.gld + s.filter.gst + s.join.gld + s.join.gst;
}

TEST(Chaos, SingleDeviceModeFailsOverToSpareDevice) {
  Graph data = ChaosData(41);
  Graph query = testing::RandomQuery(data, 5, 42);
  GsiMatcher sequential(data, GsiOptOptions());
  Result<QueryResult> baseline = sequential.Find(query);
  ASSERT_TRUE(baseline.ok());
  // The service's single-device path charges exactly the baseline's work,
  // so plans derived from it always trip mid-query.
  ASSERT_GE(TotalKernels(baseline->stats), 2u);
  ASSERT_GE(TotalTransactions(baseline->stats), 2u);

  for (const gpusim::FaultPlan& plan : FaultPoints(
           TotalKernels(baseline->stats), TotalTransactions(baseline->stats))) {
    ServiceOptions so;
    so.num_workers = 1;  // one worker: the faulted device is always picked
    so.num_devices = 2;
    so.default_max_attempts = 2;
    QueryService service(data, GsiOptOptions(), so);
    ASSERT_TRUE(service.init_status().ok());
    ASSERT_TRUE(service.InjectDeviceFault(0, plan).ok());

    Result<QueryResult> r = RunThrough(service, query);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->TableEquals(*baseline));
    EXPECT_EQ(r->stats.attempts, 2u);  // attempt 1 died on device 0
    EXPECT_GT(r->stats.backoff_ms, 0.0);

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed_ok, 1u);
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_GE(stats.device_failures, 1u);
    EXPECT_EQ(stats.quarantined_devices, 1u);
    EXPECT_TRUE(service.RepairDevice(0));
    EXPECT_EQ(service.stats().quarantined_devices, 0u);
  }
}

TEST(Chaos, ShardedModeRetriesOnSurvivingDevices) {
  Graph data = ChaosData(51);
  Graph query = testing::RandomQuery(data, 5, 52);
  GsiMatcher sequential(data, GsiOptOptions());
  Result<QueryResult> baseline = sequential.Find(query);
  ASSERT_TRUE(baseline.ok());

  for (size_t victim : {0u, 1u}) {
    ServiceOptions so;
    so.num_workers = 1;
    so.num_devices = 2;
    so.max_shards_per_query = 2;
    so.shard_min_candidates = 1;  // force fan-out on the tiny workload
    so.default_max_attempts = 2;
    QueryService service(data, GsiOptOptions(), so);
    ASSERT_TRUE(service.init_status().ok());
    // fail_on_lease trips whichever role the victim is leased into —
    // primary (Acquire) or extra shard (TryAcquire) — deterministically,
    // independent of how much join work each shard receives.
    gpusim::FaultPlan plan;
    plan.fail_on_lease = true;
    ASSERT_TRUE(service.InjectDeviceFault(victim, plan).ok());

    // Whichever device dies (primary or extra shard), the retry reruns on
    // what survives — the sharded engine is bit-identical at any width.
    Result<QueryResult> r = RunThrough(service, query);
    ASSERT_TRUE(r.ok()) << "victim " << victim << ": "
                        << r.status().ToString();
    EXPECT_TRUE(r->TableEquals(*baseline));
    EXPECT_EQ(r->stats.attempts, 2u);
    EXPECT_EQ(service.stats().quarantined_devices, 1u);
  }
}

TEST(Chaos, PartitionedModeWithoutReplicasFailsCleanlyAndRepairs) {
  Graph data = ChaosData(61);
  Graph query = testing::RandomQuery(data, 5, 62);
  GsiMatcher sequential(data, GsiOptOptions());
  Result<QueryResult> baseline = sequential.Find(query);
  ASSERT_TRUE(baseline.ok());

  ServiceOptions so;
  so.num_workers = 1;
  so.num_devices = 2;
  so.partition_data_graph = true;  // R = 1: the partitions are the data
  so.default_max_attempts = 2;
  QueryService service(data, GsiOptOptions(), so);
  ASSERT_TRUE(service.init_status().ok());

  gpusim::FaultPlan plan;
  plan.fail_at_kernel_launch = 2;
  ASSERT_TRUE(service.InjectDeviceFault(0, plan).ok());

  // No replica holds partition 0's data: the retry cannot succeed, so the
  // query fails with the actionable availability error...
  Result<QueryResult> r = RunThrough(service, query);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.unavailable_queries, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.quarantined_devices, 1u);

  // ...and the service keeps serving: repair re-admits the device and the
  // same submission now matches the sequential baseline bit-for-bit.
  ASSERT_TRUE(service.RepairDevice(0));
  Result<QueryResult> ok = RunThrough(service, query);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok->TableEquals(*baseline));
  EXPECT_EQ(service.stats().completed_ok, 1u);
}

TEST(Chaos, ReplicatedModeSurvivesEveryFaultPointBitIdentical) {
  Graph data = ChaosData(71);
  Graph query = testing::RandomQuery(data, 5, 72);
  GsiMatcher sequential(data, GsiOptOptions());
  Result<QueryResult> baseline = sequential.Find(query);
  ASSERT_TRUE(baseline.ok());

  // Early trip points only: the replica selection packs both partitions
  // onto device 0, whose scan phase alone runs well past 5 kernels and 16
  // transactions — every plan below is guaranteed to trip. (Baseline-sized
  // points would assume device 0 charges exactly the single-device work,
  // which replication does not promise.)
  for (const gpusim::FaultPlan& plan : FaultPoints(/*kernels=*/5,
                                                   /*transactions=*/16)) {
    ServiceOptions so;
    so.num_workers = 1;
    so.num_devices = 2;
    so.partition_data_graph = true;
    so.partition_replicas = 2;  // every partition lives on both devices
    so.default_max_attempts = 2;
    QueryService service(data, GsiOptOptions(), so);
    ASSERT_TRUE(service.init_status().ok());
    ASSERT_TRUE(service.InjectDeviceFault(0, plan).ok());

    // The retry re-solves group coverage onto the surviving replica.
    Result<QueryResult> r = RunThrough(service, query);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->TableEquals(*baseline));
    EXPECT_EQ(r->stats.attempts, 2u);

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed_ok, 1u);
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(stats.failovers, 1u);
    EXPECT_EQ(stats.quarantined_devices, 1u);
  }
}

TEST(Chaos, WarmHaloCacheStaysBitIdenticalAcrossFailover) {
  // The halo leg of the sweep: run a clean budgeted query, kill a device
  // mid-flight, and require the failover re-execution (which makes fresh
  // lane caches on the surviving device) and a run after repair to stay
  // bit-identical — cached bytes are a transport optimization, never an
  // answer source that can drift from the stores.
  Graph data = ChaosData(91);
  Graph query = testing::RandomQuery(data, 5, 92);
  GsiMatcher sequential(data, GsiOptOptions());
  Result<QueryResult> baseline = sequential.Find(query);
  ASSERT_TRUE(baseline.ok());

  ServiceOptions so;
  so.num_workers = 1;
  so.num_devices = 2;
  so.partition_data_graph = true;
  so.partition_replicas = 2;
  so.default_max_attempts = 2;
  so.halo_budget_bytes = 1 << 16;
  QueryService service(data, GsiOptOptions(), so);
  ASSERT_TRUE(service.init_status().ok());

  // Clean run, no fault.
  Result<QueryResult> warm = RunThrough(service, query);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->TableEquals(*baseline));

  // The pool rotates replica picks for balance, so the second query packs
  // onto device 1 — fault it there; the failover lands back on device 0.
  // The failed attempt's lane caches die with the attempt.
  gpusim::FaultPlan plan;
  plan.fail_at_kernel_launch = 2;
  ASSERT_TRUE(service.InjectDeviceFault(1, plan).ok());
  Result<QueryResult> failed_over = RunThrough(service, query);
  ASSERT_TRUE(failed_over.ok()) << failed_over.status().ToString();
  EXPECT_TRUE(failed_over->TableEquals(*baseline));
  EXPECT_EQ(failed_over->stats.attempts, 2u);
  EXPECT_EQ(service.stats().failovers, 1u);

  // After repair the tripped device serves again, with a fresh lane cache
  // like every query, so the answer is still the baseline's.
  ASSERT_TRUE(service.RepairDevice(1));
  Result<QueryResult> repaired = RunThrough(service, query);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_TRUE(repaired->TableEquals(*baseline));
  EXPECT_EQ(service.stats().completed_ok, 3u);
}

TEST(Chaos, PerTicketMaxAttemptsOverridesServiceDefault) {
  Graph data = ChaosData(81);
  Graph query = testing::RandomQuery(data, 5, 82);

  ServiceOptions so;
  so.num_workers = 1;
  so.num_devices = 2;
  so.default_max_attempts = 1;  // service default: fail fast
  QueryService service(data, GsiOptOptions(), so);
  ASSERT_TRUE(service.init_status().ok());
  gpusim::FaultPlan plan;
  plan.fail_at_kernel_launch = 1;
  ASSERT_TRUE(service.InjectDeviceFault(0, plan).ok());

  // The ticket raises its own budget and survives.
  Result<QueryResult> r = RunThrough(service, query, /*max_attempts=*/3);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.attempts, 2u);

  // A fail-fast ticket against a fresh fault reports kUnavailable.
  ASSERT_TRUE(service.RepairDevice(0));
  ASSERT_TRUE(service.InjectDeviceFault(0, plan).ok());
  Result<QueryResult> fast = RunThrough(service, query, /*max_attempts=*/1);
  ASSERT_FALSE(fast.ok());
  EXPECT_EQ(fast.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace gsi
