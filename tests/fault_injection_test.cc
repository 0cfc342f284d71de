// Deterministic fault injection (gpusim::FaultPlan): triggers trip at the
// same simulated point on every run, tripped devices surface kUnavailable
// through the execution paths with partial results discarded, and Repair
// restores bit-identical service.

#include <gtest/gtest.h>

#include <vector>

#include "gpusim/device.h"
#include "gsi/fault.h"
#include "gsi/matcher.h"
#include "gsi/query_engine.h"
#include "test_util.h"
#include "util/status.h"

namespace gsi {
namespace {

TEST(FaultPlan, KernelLaunchTriggerCountsFromArming) {
  gpusim::Device dev;
  dev.ChargeKernelLaunch();  // history before arming must not count
  gpusim::FaultPlan plan;
  plan.fail_at_kernel_launch = 3;
  plan.reason = "kernel trigger";
  dev.InjectFault(plan);
  dev.ChargeKernelLaunch();
  dev.ChargeKernelLaunch();
  EXPECT_TRUE(dev.healthy());
  dev.ChargeKernelLaunch();  // third since arming
  EXPECT_FALSE(dev.healthy());
  EXPECT_EQ(dev.fault_message(), "kernel trigger");
}

TEST(FaultPlan, TransactionTriggerCountsFromArming) {
  gpusim::Device dev;
  dev.ChargeRemoteTransfer(128 * 10);  // 10 lines of pre-arming history
  gpusim::FaultPlan plan;
  plan.fail_after_transactions = 4;
  dev.InjectFault(plan);
  dev.ChargeRemoteTransfer(128 * 3);  // 3 lines since arming
  EXPECT_TRUE(dev.healthy());
  dev.ChargeRemoteTransfer(128);  // 4th line trips
  EXPECT_FALSE(dev.healthy());
}

TEST(FaultPlan, FirstTripWinsAndRepairClears) {
  gpusim::Device dev;
  dev.Trip("first");
  dev.Trip("second");
  EXPECT_FALSE(dev.healthy());
  EXPECT_EQ(dev.fault_message(), "first");
  dev.Repair();
  EXPECT_TRUE(dev.healthy());
  EXPECT_TRUE(dev.fault_message().empty());
  // Repair disarmed the (nonexistent) plan: more work never trips.
  dev.ChargeKernelLaunch();
  EXPECT_TRUE(dev.healthy());
}

TEST(FaultPlan, LeaseTriggerFiresOnOnLeaseAcquired) {
  gpusim::Device dev;
  gpusim::FaultPlan plan;
  plan.fail_on_lease = true;
  dev.InjectFault(plan);
  EXPECT_TRUE(dev.healthy());
  dev.OnLeaseAcquired();
  EXPECT_FALSE(dev.healthy());
}

TEST(CheckDeviceHealthy, NamesDeviceAndPhase) {
  gpusim::Device dev;
  dev.set_ordinal(3);
  EXPECT_TRUE(CheckDeviceHealthy(dev, "join").ok());
  dev.Trip("boom");
  Status s = CheckDeviceHealthy(dev, "join");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_NE(s.message().find("device 3"), std::string::npos);
  EXPECT_NE(s.message().find("join"), std::string::npos);
  EXPECT_NE(s.message().find("boom"), std::string::npos);
}

TEST(FaultInjection, MatcherFailsUnavailableThenRepairRestoresBitIdentical) {
  Graph data = testing::RandomGraph(300, 3, 4, 3, 11);
  Graph query = testing::RandomQuery(data, 5, 12);
  GsiMatcher matcher(data, GsiOptOptions());
  Result<QueryResult> baseline = matcher.Find(query);
  ASSERT_TRUE(baseline.ok());

  gpusim::FaultPlan plan;
  plan.fail_at_kernel_launch = 2;
  matcher.device().InjectFault(plan);
  Result<QueryResult> failed = matcher.Find(query);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);

  // The fail-stop model never corrupts state: a repaired device produces
  // the exact same table (partial results of the failed run were dropped).
  matcher.device().Repair();
  Result<QueryResult> again = matcher.Find(query);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->TableEquals(*baseline));
  EXPECT_EQ(again->num_matches(), baseline->num_matches());
}

TEST(FaultInjection, TripPointIsDeterministicAcrossRuns) {
  Graph data = testing::RandomGraph(300, 3, 4, 3, 21);
  Graph query = testing::RandomQuery(data, 5, 22);
  gpusim::FaultPlan plan;
  plan.fail_at_kernel_launch = 5;

  // Two independent matchers run the identical workload with the identical
  // plan: both must trip, and at the identical simulated point — counters
  // are pure functions of the charged work.
  std::vector<gpusim::MemStats> at_trip;
  for (int run = 0; run < 2; ++run) {
    GsiMatcher matcher(data, GsiOptOptions());
    matcher.device().InjectFault(plan);
    Result<QueryResult> r = matcher.Find(query);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    at_trip.push_back(matcher.device().stats());
  }
  EXPECT_EQ(at_trip[0].kernel_launches, at_trip[1].kernel_launches);
  EXPECT_EQ(at_trip[0].gld, at_trip[1].gld);
  EXPECT_EQ(at_trip[0].gst, at_trip[1].gst);
  EXPECT_EQ(at_trip[0].simulated_cycles, at_trip[1].simulated_cycles);
}

TEST(FaultInjection, ShardedExecutionDetectsAnyDeadDevice) {
  Graph data = testing::RandomGraph(300, 3, 4, 3, 31);
  Graph query = testing::RandomQuery(data, 5, 32);
  QueryEngine engine(data, GsiOptOptions());
  ASSERT_TRUE(engine.init_status().ok());
  GsiMatcher matcher(data, GsiOptOptions());
  Result<QueryResult> baseline = matcher.Find(query);
  ASSERT_TRUE(baseline.ok());

  for (size_t victim = 0; victim < 2; ++victim) {
    gpusim::Device a(engine.options().device);
    gpusim::Device b(engine.options().device);
    a.set_ordinal(0);
    b.set_ordinal(1);
    std::vector<gpusim::Device*> devs = {&a, &b};
    gpusim::FaultPlan plan;
    plan.fail_at_kernel_launch = 1;
    devs[victim]->InjectFault(plan);
    const QueryEngine::ExecRequest req{.query = &query, .devices = devs};
    Result<QueryResult> r = engine.Execute(req);
    ASSERT_FALSE(r.ok()) << "victim " << victim;
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);

    // Repair both and rerun on the same devices: bit-identical to the
    // single-device baseline (the sharded guarantee survives a fault).
    a.Repair();
    b.Repair();
    Result<QueryResult> ok = engine.Execute(req);
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(ok->TableEquals(*baseline));
  }
}

}  // namespace
}  // namespace gsi
